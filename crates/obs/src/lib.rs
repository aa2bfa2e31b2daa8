//! Observability layer for the LOCKSS reproduction: a deterministic
//! metrics registry, a profiling span tree, and sweep heartbeat records —
//! plus the workspace's JSON grammar ([`json`]), which those documents and
//! every other fixed-schema document are written and read through.
//!
//! Everything in this crate is strictly *out-of-band*: nothing here may
//! influence simulation results. Instrumented code holds pre-registered
//! handles behind an `Option`, so a run without observability pays one
//! null-check per site — the same discipline as `TraceSink` in
//! `lockss-core`. The crate is dependency-free (std only) so that even
//! the leaf `lockss-sim` crate can depend on it; `lockss-sim` re-exports
//! the grammar as `lockss_sim::json`.

#![deny(missing_docs)]

mod clock;
mod heartbeat;
pub mod json;
mod profile;
mod registry;

pub use clock::unix_ms_now;
pub use heartbeat::{proc_status_kb, Heartbeat, FORMAT as HEARTBEAT_FORMAT};
pub use profile::{Profiler, SharedProfiler, Span, FORMAT as PROFILE_FORMAT};
pub use registry::{
    Counter, Gauge, Histogram, MetricKind, Registry, RegistryBuilder, FORMAT as METRICS_FORMAT,
};
