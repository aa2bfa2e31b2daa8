//! Evaluation metrics (paper §6.1).
//!
//! Four metrics measure the effectiveness of the attrition defenses:
//!
//! - **access failure probability** — the fraction of all replicas that are
//!   damaged, averaged over all time points of the experiment;
//! - **delay ratio** — mean time between successful polls at loyal peers
//!   under attack, divided by the same measurement without the attack;
//! - **coefficient of friction** — average effort expended by loyal peers
//!   per successful poll during an attack, divided by their per-poll effort
//!   absent the attack;
//! - **cost ratio** — total attacker effort divided by total defender
//!   effort during the attack.
//!
//! [`RunMetrics`] collects raw observations during a run; [`Summary`]
//! condenses them; ratio metrics divide an attack summary by a baseline
//! summary of the same configuration.

#![deny(missing_docs)]

pub mod damage_clock;
pub mod poll_stats;
pub mod streaming;
pub mod summary;
pub mod table;
pub mod timeline;

pub use damage_clock::DamageClock;
pub use poll_stats::PollStats;
pub use streaming::Reservoir;
pub use summary::{PhaseSummary, RunMetrics, Summary};
pub use table::Table;
pub use timeline::{PollTimeline, TimeBuckets, TimelineSummary};
