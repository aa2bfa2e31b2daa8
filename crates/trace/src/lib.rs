//! Structured event-trace record, replay, diff, stats, and export.
//!
//! The engine is byte-deterministic per `(scenario, seed)`, which makes a
//! recorded event stream a *complete, checkable* description of a run —
//! the record-and-replay property argued for in O'Callahan et al.,
//! *Lightweight User-Space Record And Replay*. This crate turns the
//! [`lockss_core::trace::TraceSink`] stream into five tools:
//!
//! - **record** ([`Recorder`]): capture the full causal stream into the
//!   block-columnar `LTRC2` format — events grouped into fixed-budget
//!   blocks, transposed into per-kind columns, delta-coded and
//!   LZ-compressed, with a seekable block index and a SHA-256 content
//!   hash in the trailer, no external dependencies. Files in the flat
//!   `LTRC1` predecessor stay readable: [`Trace::from_bytes`] imports
//!   them to LTRC2 at the door ([`legacy`]), so every tool below has
//!   one wire to know;
//! - **replay** ([`Verifier`]): re-drive the same scenario and verify
//!   event-for-event equivalence against a recorded trace, aborting the run
//!   at the first divergence and reporting it with full context (time,
//!   engine event ordinal, event kind, payload delta);
//! - **diff** ([`diff_traces`]): align two traces — two seeds, or baseline
//!   vs. attacked — skipping identical block prefixes by index digest and
//!   summarizing where the behaviors fork;
//! - **stats** ([`trace_stats`]): rebuild per-poll timelines and per-phase
//!   activity the live metric counters cannot see after the fact, decoding
//!   blocks in parallel ([`trace_stats_threaded`]) with byte-identical
//!   output at any thread count;
//! - **export** ([`export_csv`]): bucket the stream into a dense CSV
//!   timeline for plotting.
//!
//! The `lockss-sim` CLI exposes all five: `run <name> --record <path>`,
//! `replay <path>`, `trace diff <a> <b>`, `trace stats <paths...>`,
//! `trace convert <in> <out>`, `trace export <path> --csv <out>`, and
//! `sweep <name> --record <dir>` for whole-campaign recordings.

#![deny(missing_docs)]

pub mod columnar;
pub mod diff;
pub mod export;
pub mod format;
pub mod legacy;
pub mod lz;
pub mod parallel;
pub mod replay;
pub mod stats;
pub mod wire;

pub use columnar::{BlockEntry, ColumnScratch};
pub use diff::{diff_traces, diff_traces_threaded, Fork, TraceDiff};
pub use export::export_csv;
pub use format::{
    Recorder, SealStats, Trace, TraceMeta, TraceReader, TraceRecord, TraceWire,
    DEFAULT_BLOCK_EVENTS,
};
pub use legacy::RecorderV1;
pub use parallel::for_each_block;
pub use replay::{Divergence, ReplayReport, Verifier};
pub use stats::{
    trace_stats, trace_stats_threaded, AggregateStats, PhaseSegment, StatsBuilder, TraceStats,
};
pub use wire::TraceError;
