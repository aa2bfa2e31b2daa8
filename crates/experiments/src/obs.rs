//! Experiment-level observability: one registry session that wires the
//! protocol ([`CoreObs`]) and engine ([`EngineObs`]) metric handles
//! together with the sweep fabric's own counters, plus the heartbeat
//! telemetry configuration sweeps thread down to their workers.
//!
//! Everything here is strictly out-of-band, like tracing: a session
//! observes a run, it never steers one. The byte-identity tests in
//! `tests/observability.rs` hold the harness to that.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use lockss_core::CoreObs;
use lockss_obs::{Counter, Profiler, Registry, RegistryBuilder, SharedProfiler, Span};
use lockss_sim::EngineObs;

use crate::runner::{Instruments, RunOptions};

/// One observability session: a sealed metrics registry with every
/// handle the harness knows about pre-registered, shared by all worlds,
/// engines, and sweep workers the process runs.
///
/// Handles are `Arc` clones around atomics, so a session can be read
/// (for heartbeats or a final snapshot) while workers are still
/// bumping the counters.
pub struct ObsSession {
    /// The sealed registry; snapshot with [`ObsSession::write_metrics`].
    pub registry: Registry,
    /// Protocol-layer handles, cloned into each observed world.
    pub core: CoreObs,
    /// Engine handles, cloned into each observed engine.
    pub engine: EngineObs,
    /// Seeds completed by sweep workers.
    pub sweep_seeds: Counter,
    /// Worker chunks started (one per worker thread per sweep).
    pub sweep_chunks: Counter,
}

impl ObsSession {
    /// Builds the registry and every handle.
    pub fn new() -> ObsSession {
        let mut b = RegistryBuilder::new();
        let core = CoreObs::register(&mut b);
        let engine = EngineObs::register(&mut b);
        let sweep_seeds = b.counter(
            "sweep_seeds_completed_total",
            "Seeds completed by sweep workers",
        );
        let sweep_chunks = b.counter(
            "sweep_worker_chunks_total",
            "Worker chunks started by sweeps (one per worker thread)",
        );
        ObsSession {
            registry: b.build(),
            core,
            engine,
            sweep_seeds,
            sweep_chunks,
        }
    }

    /// Run-level instruments backed by this session's handles, plus an
    /// optional profiler for span timing.
    pub fn instruments(&self, profiler: Option<SharedProfiler>) -> Instruments {
        Instruments {
            core: Some(self.core.clone()),
            engine: Some(self.engine.clone()),
            profiler,
        }
    }

    /// Writes the JSON snapshot to `path` and the Prometheus text
    /// exposition next to it (same stem, `.prom` extension); returns the
    /// Prometheus path.
    pub fn write_metrics(&self, path: &Path) -> io::Result<PathBuf> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.registry.to_json())?;
        let prom = path.with_extension("prom");
        std::fs::write(&prom, self.registry.to_prometheus())?;
        Ok(prom)
    }
}

impl Default for ObsSession {
    fn default() -> Self {
        Self::new()
    }
}

/// Heartbeat telemetry configuration for one sweep.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Directory the heartbeat JSONL files land in (created if missing).
    pub dir: PathBuf,
    /// Emission interval. Heartbeats are time-based, not per-seed: the
    /// protocol counters advance *during* a seed, so a long seed still
    /// shows progress — which is exactly what lets `sweep dispatch` tell
    /// a slow shard from a stalled one.
    pub interval: Duration,
}

impl Telemetry {
    /// Telemetry into `dir` at the default 2-second cadence.
    pub fn new(dir: &Path) -> Telemetry {
        Telemetry {
            dir: dir.to_path_buf(),
            interval: Duration::from_millis(2000),
        }
    }
}

/// The heartbeat JSONL path for a (possibly sharded) sweep of
/// `scenario` under `dir`. Shards are `(index, count)` with the 1-based
/// index the checkpoint names use.
pub fn heartbeat_path(dir: &Path, scenario: &str, shard: Option<(u64, u64)>) -> PathBuf {
    match shard {
        Some((i, n)) => dir.join(format!("heartbeat-{scenario}-s{i}of{n}.jsonl")),
        None => dir.join(format!("heartbeat-{scenario}.jsonl")),
    }
}

/// Observability hooks a sweep threads through its orchestrator: the
/// shared session (always), a merge target for per-worker profilers
/// (when profiling), and heartbeat telemetry (when requested).
pub struct SweepObs<'a> {
    /// The session whose handles workers bump.
    pub session: &'a ObsSession,
    /// Per-worker profilers are absorbed here as each worker exits.
    pub profiler: Option<&'a Mutex<Profiler>>,
    /// Heartbeat emission, when `--telemetry` is on.
    pub telemetry: Option<Telemetry>,
}

/// One worker thread's view of a [`SweepObs`]: run options whose
/// instruments are backed by the shared session, profiling into the
/// worker's own tree (profilers are single-threaded `Rc`s) under a
/// `worker-chunk` root. Dropping it closes that span and absorbs the tree
/// into the shared profiler.
pub(crate) struct WorkerObs<'a> {
    /// Plain-run options (no sink) carrying this worker's instruments;
    /// all-off when the batch or sweep is unobserved.
    pub options: RunOptions,
    chunk: Option<Span>,
    merge: Option<(SharedProfiler, &'a Mutex<Profiler>)>,
}

impl<'a> WorkerObs<'a> {
    /// Call on the worker thread, before its first item.
    pub fn enter(obs: Option<&SweepObs<'a>>) -> WorkerObs<'a> {
        let merge = obs.and_then(|o| o.profiler.map(|merged| (Profiler::shared(), merged)));
        let wprof = merge.as_ref().map(|(wp, _)| wp.clone());
        let chunk = Span::enter(&wprof, "worker-chunk");
        WorkerObs {
            options: RunOptions {
                sink: None,
                instruments: obs
                    .map(|o| o.session.instruments(wprof))
                    .unwrap_or_default(),
            },
            chunk,
            merge,
        }
    }
}

impl Drop for WorkerObs<'_> {
    fn drop(&mut self) {
        drop(self.chunk.take());
        if let Some((wp, merged)) = &self.merge {
            merged
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .absorb(&wp.borrow());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_registers_all_layers() {
        let s = ObsSession::new();
        let json = s.registry.to_json();
        for key in [
            "polls_started_total",
            "engine_events_executed_total",
            "sweep_seeds_completed_total",
            "sweep_worker_chunks_total",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn write_metrics_emits_both_formats() {
        let dir = std::env::temp_dir().join(format!("obs-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = ObsSession::new();
        s.core.polls_started.add(3);
        let json_path = dir.join("metrics.json");
        let prom_path = s.write_metrics(&json_path).unwrap();
        let json = std::fs::read_to_string(&json_path).unwrap();
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(json.contains("\"polls_started_total\": 3"));
        assert!(prom.contains("polls_started_total 3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_paths_name_the_shard() {
        let d = Path::new("tele");
        assert_eq!(
            heartbeat_path(d, "attrition", Some((2, 4))),
            d.join("heartbeat-attrition-s2of4.jsonl")
        );
        assert_eq!(
            heartbeat_path(d, "attrition", None),
            d.join("heartbeat-attrition.jsonl")
        );
    }
}
