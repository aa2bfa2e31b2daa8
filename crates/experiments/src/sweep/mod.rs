//! The distributed sweep fabric: deterministic Monte Carlo campaigns
//! sharded across worker threads, processes, and hosts.
//!
//! A *sweep* runs one registered scenario across a seed range and merges
//! the per-seed summaries into one report. The fabric layers five modules
//! on top of that idea:
//!
//! - [`plan`] — the report/checkpoint model and the in-process
//!   orchestrator: workers claim seeds off an atomic cursor, slot results
//!   by seed index, and the merge reduces in ascending seed order, so the
//!   rendered report is byte-identical for `--threads 1` and
//!   `--threads 8`. Checkpoints are rewritten atomically (temp file,
//!   fsync, rename, directory fsync) after every finished seed, and
//!   summaries round-trip through JSON exactly (shortest-repr floats
//!   parse back to the same bits), so a resumed sweep finishes with the
//!   same bytes an uninterrupted one would have produced.
//! - [`shard`] — the wire topology: `--shard i/N` runs the i-th of N
//!   disjoint contiguous slices of the campaign's seed list and tags the
//!   checkpoint with the full topology (index, count, campaign seeds), so
//!   any process — on any host — holding the same binary and the same
//!   seed range computes exactly its own slice and nothing else.
//! - [`merge`] — reassembly: `sweep merge <files...>` hard-fails on any
//!   topology violation (mixed scenarios/scales, a foreign format
//!   version, duplicate or missing shards, overlapping or uncovered seed
//!   ranges, an unfinished shard) and otherwise emits a report
//!   byte-identical to a single-process run of the whole campaign.
//! - [`dispatch`] — handing shards out: `sweep <name> --jobfile
//!   <path> --shards N` writes N worker command lines and the merge line
//!   and runs nothing, for `xargs -P`, GNU parallel, ssh or a scheduler
//!   to execute. There is no supervisor: a worker that dies is rerun and
//!   resumes from its checkpoint, one that hangs is bounded by `timeout`,
//!   and `sweep merge` checks the result.
//! - [`status`] — `sweep status <dir>` renders campaign progress from the
//!   checkpoints and heartbeat telemetry a directory holds.
//!
//! Fault injection for the test suite (and CI's kill-one-shard step) is
//! the `LOCKSS_SWEEP_CRASH_AFTER` hook in [`shard`], armed on exactly
//! the worker to crash: it aborts that worker mid-checkpoint-write, and
//! the torn temp file it leaves behind is exactly what a real `kill -9`
//! can produce.
//!
//! The checkpoint/report format is a small fixed-schema JSON document
//! (format tag [`plan::FORMAT`]), written and parsed by the workspace's
//! one self-hosted JSON grammar ([`lockss_sim::json`], re-exported here
//! as [`json`]; the offline dependency policy bans serde).

pub mod dispatch;
pub mod merge;
pub mod plan;
pub mod shard;
pub mod status;

pub use dispatch::{jobfile, DispatchPlan};
pub use merge::{merge_files, merge_reports};
pub use plan::{
    load_checkpoint, parse_seed_range, report_path, run_sweep, run_sweep_plan, summary_from_json,
    summary_to_json, write_checkpoint, write_summary, SweepOptions, SweepReport, FORMAT, MAX_SEEDS,
};
pub use shard::{parse_shard_arg, partition, CrashHook, ShardTag};
pub use status::{campaign_status, render_status, ShardStatus};

pub use lockss_sim::json;
