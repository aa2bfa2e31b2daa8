//! Experiment-level observability: [`ObsSession`], the one value a caller
//! builds to watch its runs. It holds the metrics registry with the
//! protocol ([`CoreObs`]), engine ([`EngineObs`]) and sweep handles, the
//! span tree every profiled run is merged into, and the directory sweeps
//! append heartbeats to. [`RunOptions`](crate::runner::RunOptions) carries
//! it beside the trace sink.
//!
//! Everything here is strictly out-of-band, like tracing: a session
//! observes a run, it never steers one. The byte-identity tests in
//! `tests/observability.rs` hold the harness to that.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use lockss_core::CoreObs;
use lockss_obs::{Counter, Profiler, Registry, RegistryBuilder, SharedProfiler};
use lockss_sim::EngineObs;

/// How often a sweep appends a heartbeat. Heartbeats are time-based, not
/// per-seed: the protocol counters advance *during* a seed, so a long seed
/// still shows progress — which is exactly what lets `sweep status` tell a
/// slow shard from a stalled one.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(2);

/// One observability session: a sealed metrics registry with every handle
/// the harness knows about pre-registered, shared by all worlds, engines
/// and sweep workers the process runs; with profiling, the span tree they
/// are merged into; with heartbeats, where a sweep writes them.
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
    /// Worker threads started by sweeps.
    pub sweep_chunks: Counter,
    /// The span tree each run's profiler is absorbed into as it finishes
    /// (profilers are single-threaded, so every run keeps its own).
    profile: Option<Mutex<Profiler>>,
    /// The directory sweeps append heartbeat JSONL files to.
    heartbeats: Option<PathBuf>,
}

impl ObsSession {
    /// Builds the registry and every handle; profiling and heartbeats off.
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
            profile: None,
            heartbeats: None,
        }
    }

    /// The session with span profiling on: every run opens its spans on a
    /// fresh profiler, merged into [`ObsSession::profile_json`]'s tree.
    pub fn profiled(mut self) -> ObsSession {
        self.profile = Some(Mutex::new(Profiler::new()));
        self
    }

    /// The session with sweep heartbeats on, appended under `dir` (created
    /// if missing) every [`HEARTBEAT_INTERVAL`].
    pub fn with_heartbeats(mut self, dir: &Path) -> ObsSession {
        self.heartbeats = Some(dir.to_path_buf());
        self
    }

    /// Where sweeps append heartbeats, when they are on.
    pub(crate) fn heartbeat_dir(&self) -> Option<&Path> {
        self.heartbeats.as_deref()
    }

    /// A fresh profiler for one run, when profiling is on.
    pub(crate) fn run_profiler(&self) -> Option<SharedProfiler> {
        self.profile.as_ref().map(|_| Profiler::shared())
    }

    /// Merges one finished run's span tree into the session's.
    pub(crate) fn absorb(&self, run: &Profiler) {
        if let Some(merged) = &self.profile {
            merged
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .absorb(run);
        }
    }

    /// The merged span tree as a `lockss-profile-v1` document named
    /// `name`, when profiling is on.
    pub fn profile_json(&self, name: &str) -> Option<String> {
        let merged = self.profile.as_ref()?;
        let merged = merged
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Some(merged.to_json(name))
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

/// The heartbeat JSONL path for a (possibly sharded) sweep of
/// `scenario` under `dir`. Shards are `(index, count)` with the 1-based
/// index the checkpoint names use.
pub fn heartbeat_path(dir: &Path, scenario: &str, shard: Option<(u64, u64)>) -> PathBuf {
    match shard {
        Some((i, n)) => dir.join(format!("heartbeat-{scenario}-s{i}of{n}.jsonl")),
        None => dir.join(format!("heartbeat-{scenario}.jsonl")),
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
