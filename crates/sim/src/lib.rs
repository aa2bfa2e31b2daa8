//! Deterministic discrete-event simulation engine.
//!
//! This crate replaces the role of the Narses simulator in the paper: it
//! provides simulated time, an event queue with deterministic ordering, and
//! seeded randomness helpers. Everything above it (network, protocol,
//! adversaries) is pure model code driven by this engine.
//!
//! The engine is deliberately single-threaded: reproduction experiments
//! parallelise across *seeds*, not within a run, so that every run is exactly
//! reproducible from its seed.

#![deny(missing_docs)]

pub mod engine;
pub mod fxmap;
pub mod rng;
pub mod time;
pub mod weighted;

/// The workspace's JSON grammar, hosted by the std-only `lockss-obs` leaf
/// so its own documents can use it too.
pub use lockss_obs::json;

pub use engine::{Engine, EngineObs};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHasher};
pub use rng::SimRng;
pub use time::{Duration, SimTime};
pub use weighted::AliasTable;
