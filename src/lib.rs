//! Facade crate for the LOCKSS attrition-defense reproduction.
//!
//! Re-exports the public APIs of every subsystem crate so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! - [`sim`]: discrete-event engine, simulated time, seeded RNG;
//! - [`net`]: flow-level network with pipe-stoppage modelling;
//! - [`crypto`]: SHA-256 for trace seals and golden digests;
//! - [`effort`]: the calibrated effort cost model and ledgers;
//! - [`storage`]: archival units, replicas, bit-rot damage;
//! - [`core`]: the audit/repair protocol with the attrition defenses;
//! - [`adversary`]: pipe stoppage, admission flood, brute force, churn
//!   storm, sybil ramp, and composite campaigns;
//! - [`metrics`]: the §6.1 evaluation metrics and trace-derived timelines;
//! - [`obs`]: out-of-band observability — metrics registry, profiling
//!   spans, sweep heartbeats;
//! - [`trace`]: structured event-trace record, replay verification, diff,
//!   and stats over deterministic runs;
//! - [`experiments`]: the scenario registry and runner regenerating every
//!   figure/table and running named campaigns.
//!
//! # Examples
//!
//! ```
//! use lockss::core::WorldConfig;
//! use lockss::experiments::runner::{Run, RunOptions};
//! use lockss::sim::{Duration, SimTime};
//!
//! // A small preservation network, simulated for sixty days.
//! let mut cfg = WorldConfig::default();
//! cfg.n_peers = 25;
//! cfg.n_aus = 1;
//! cfg.protocol.poll_interval = Duration::from_days(15);
//! let mut run = Run::start(cfg, None, &RunOptions::default());
//! run.advance_to(SimTime::ZERO + Duration::from_days(60));
//! let summary = run.finish().summary;
//! assert!(summary.successful_polls > 0);
//! ```

pub use lockss_adversary as adversary;
pub use lockss_core as core;
pub use lockss_crypto as crypto;
pub use lockss_effort as effort;
pub use lockss_experiments as experiments;
pub use lockss_metrics as metrics;
pub use lockss_net as net;
pub use lockss_obs as obs;
pub use lockss_sim as sim;
pub use lockss_storage as storage;
pub use lockss_trace as trace;
