//! The LOCKSS replica audit-and-repair protocol with attrition defenses —
//! the paper's contribution (§4–§5).
//!
//! A population of peers each preserves replicas of archival units (AUs).
//! Every peer runs, per AU, an endless sequence of *opinion polls*: it
//! samples an inner circle from its reference list, solicits votes
//! individually at randomized times (desynchronization), evaluates the
//! votes block by block against its own replica, repairs blocks on which it
//! is outvoted in a landslide, and concludes with evaluation receipts —
//! then immediately schedules the next poll one inter-poll interval out
//! (autonomous rate limitation).
//!
//! The attrition defenses are:
//!
//! - **admission control** ([`admission`], [`reputation`]): random drops of
//!   unknown/in-debt pollers, a per-AU refractory period admitting at most
//!   one unknown/in-debt invitation, per-peer rate limits for known peers,
//!   and introductions that bypass both;
//! - **effort balancing** (costs from `lockss-effort`): provable effort at
//!   every protocol step so an ostensibly legitimate attacker always spends
//!   at least as much as his victim, with the MBF byproduct doubling as the
//!   evaluation receipt;
//! - **desynchronization** ([`poller`]): votes are solicited one voter at a
//!   time across a long solicitation window, so no simultaneous
//!   availability of a quorum is ever needed;
//! - **redundancy** ([`world`]): every peer holds a replica, polls sample
//!   from a reference list much larger than the quorum, and the inter-poll
//!   margin over the damage rate gives redundancy in time.
//!
//! [`world::World`] wires the peers to the simulated network, storage
//! damage process, effort ledgers, metrics, and a pluggable
//! [`adversary::Adversary`].

pub mod admission;
pub mod adversary;
pub mod churn;
pub mod config;
pub mod msg;
pub mod obs;
pub mod peer;
pub mod poller;
pub mod realproto;
pub mod reflist;
pub mod reputation;
pub mod schedule;
pub mod trace;
pub mod types;
pub mod voter;
pub mod world;

pub use adversary::{Adversary, NullAdversary};
pub use config::{ProtocolConfig, WorldConfig};
pub use msg::Message;
pub use obs::CoreObs;
pub use peer::{AuState, PeerTable, TableOccupancy};
pub use trace::{AdmissionVerdict, MsgKind, PollConclusion, TraceEvent, TraceEventKind, TraceSink};
pub use types::{Identity, PollId};
pub use world::World;
