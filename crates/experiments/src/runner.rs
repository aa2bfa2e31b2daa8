//! Runs scenarios across seeds, in parallel, and condenses the metrics —
//! plus the traced variants: record a run's full event stream, or replay
//! one against a recorded trace and verify event-for-event equivalence.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use lockss_core::{CoreObs, TableOccupancy, World, WorldConfig};
use lockss_metrics::{PhaseSummary, Summary};
use lockss_obs::{Profiler, SharedProfiler, Span};
use lockss_sim::{Engine, EngineObs, SimTime};
use lockss_trace::{Recorder, ReplayReport, Trace, TraceError, TraceMeta, Verifier};

use crate::scenario::Scenario;

/// An engine pre-sized for the scenario's population: a 10k+-peer world
/// schedules (peers × AUs) first-poll events plus per-peer damage timers
/// before the first event runs, and the in-flight message population
/// scales the same way. Sizing up front replaces the doubling cascade on
/// the event arena with one allocation (the queue's slot buffers grow on
/// demand and are released as they drain).
fn engine_for(cfg: &WorldConfig) -> Engine<World> {
    let outstanding = cfg.n_peers * (cfg.n_aus + 1) * 4;
    Engine::with_capacity(outstanding.clamp(1024, 1 << 22))
}

/// Locks a mutex, recovering from poisoning: if a worker panicked while
/// holding the lock, the queue/result state it protects is still valid (a
/// pop or a push completed or didn't), so the surviving workers keep
/// draining instead of cascading panics and wedging `run_batch`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The measured result of one scenario (mean over seeds), with its matched
/// baseline for the ratio metrics.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    pub label: String,
    pub attacked: Summary,
    pub baseline: Summary,
}

impl MeasuredPoint {
    /// Access failure probability under attack.
    pub fn access_failure(&self) -> f64 {
        self.attacked.access_failure_probability
    }

    /// Delay ratio vs the matched baseline (§6.1).
    pub fn delay_ratio(&self) -> Option<f64> {
        self.attacked.delay_ratio(&self.baseline)
    }

    /// Coefficient of friction vs the matched baseline (§6.1).
    pub fn friction(&self) -> Option<f64> {
        self.attacked.coefficient_of_friction(&self.baseline)
    }

    /// Cost ratio (§6.1); meaningful only for effortful attacks.
    pub fn cost_ratio(&self) -> Option<f64> {
        self.attacked.cost_ratio()
    }
}

/// Out-of-band instruments for one run: metric handles cloned into the
/// world/engine and an optional profiler for span timing. `Default` is
/// fully off — the run pays one `Option` check per instrumented site.
///
/// Instruments never perturb a run: counters and spans read protocol
/// state, they never feed it, so summaries, traces, and reports are
/// byte-identical with instruments on or off (enforced by
/// `tests/observability.rs`).
#[derive(Clone, Default)]
pub struct Instruments {
    /// Protocol-layer counters (poll lifecycle, admission, repairs).
    pub core: Option<CoreObs>,
    /// Engine counters (events, arena occupancy).
    pub engine: Option<EngineObs>,
    /// Wall-clock span profiler.
    pub profiler: Option<SharedProfiler>,
}

impl Instruments {
    /// True when nothing is being observed.
    pub fn is_off(&self) -> bool {
        self.core.is_none() && self.engine.is_none() && self.profiler.is_none()
    }
}

/// Runs one seed of a scenario to completion.
pub fn run_once(scenario: &Scenario, seed: u64) -> Summary {
    run_once_with_phases(scenario, seed).0
}

/// Runs one seed and also returns the per-phase metric breakdown (empty
/// unless the attack is a phased composite, which records a mark as each
/// member starts).
pub fn run_once_with_phases(scenario: &Scenario, seed: u64) -> (Summary, Vec<PhaseSummary>) {
    run_once_observed(scenario, seed, &Instruments::default())
}

/// [`run_once_with_phases`] with instruments installed: spans around
/// world build and the simulation loop, metric handles wired into the
/// world and engine.
pub fn run_once_observed(
    scenario: &Scenario,
    seed: u64,
    ins: &Instruments,
) -> (Summary, Vec<PhaseSummary>) {
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = {
        let _span = Span::enter(&ins.profiler, "world-build");
        let mut world = World::new(cfg);
        if let Some(adv) = scenario.attack.build() {
            world.install_adversary(adv);
        }
        world
    };
    if let Some(core) = &ins.core {
        world.set_obs(core.clone());
    }
    if let Some(prof) = &ins.profiler {
        world.set_profiler(prof.clone());
    }
    let mut eng: Engine<World> = engine_for(&scenario.cfg);
    if let Some(engine) = &ins.engine {
        eng.set_obs(engine.clone());
    }
    let end = SimTime::ZERO + scenario.run_length;
    {
        let _span = Span::enter(&ins.profiler, "simulate");
        world.start(&mut eng);
        eng.run_until(&mut world, end);
    }
    (
        world.metrics.summarize(end),
        world.metrics.phase_summaries(end),
    )
}

/// Runs one seed with a trace recorder installed; returns the summary, the
/// per-phase breakdown, and the sealed trace.
///
/// Recording does not perturb the run: emission never touches the RNG or
/// the event queue, so the summary is byte-identical to an untraced
/// [`run_once`] of the same `(scenario, seed)`.
pub fn run_once_recorded(
    scenario: &Scenario,
    seed: u64,
    meta: &TraceMeta,
) -> (Summary, Vec<PhaseSummary>, Trace) {
    run_once_recorded_observed(scenario, seed, meta, &Instruments::default())
}

/// [`run_once_recorded`] with instruments installed; adds a
/// `trace-seal` span around sealing the recorded stream.
pub fn run_once_recorded_observed(
    scenario: &Scenario,
    seed: u64,
    meta: &TraceMeta,
    ins: &Instruments,
) -> (Summary, Vec<PhaseSummary>, Trace) {
    let recorder = Recorder::new(meta);
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = {
        let _span = Span::enter(&ins.profiler, "world-build");
        let mut world = World::new(cfg);
        world.set_trace_sink(Box::new(recorder.clone()));
        if let Some(adv) = scenario.attack.build() {
            world.install_adversary(adv);
        }
        world
    };
    if let Some(core) = &ins.core {
        world.set_obs(core.clone());
    }
    if let Some(prof) = &ins.profiler {
        world.set_profiler(prof.clone());
    }
    let mut eng: Engine<World> = engine_for(&scenario.cfg);
    if let Some(engine) = &ins.engine {
        eng.set_obs(engine.clone());
    }
    let end = SimTime::ZERO + scenario.run_length;
    {
        let _span = Span::enter(&ins.profiler, "simulate");
        world.start(&mut eng);
        eng.run_until(&mut world, end);
    }
    let summary = world.metrics.summarize(end);
    let phases = world.metrics.phase_summaries(end);
    let trace = {
        let _span = Span::enter(&ins.profiler, "trace-seal");
        recorder.finish()
    };
    (summary, phases, trace)
}

/// Replays a scenario at `seed` against a recorded trace, verifying
/// event-for-event equivalence; the run aborts at the first divergence.
///
/// The scenario and seed are the caller's to choose: pass the recorded
/// ones for a faithfulness check (zero divergence expected), or perturb
/// either to locate exactly where two executions fork.
pub fn replay_once(
    scenario: &Scenario,
    seed: u64,
    trace: &Trace,
) -> Result<ReplayReport, TraceError> {
    let verifier = Verifier::new(trace);
    let meta = trace.meta()?;
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = World::new(cfg);
    world.set_trace_sink(Box::new(verifier.clone()));
    if let Some(adv) = scenario.attack.build() {
        world.install_adversary(adv);
    }
    let mut eng: Engine<World> = engine_for(&scenario.cfg);
    world.start(&mut eng);
    let end = SimTime::ZERO + scenario.run_length;
    eng.run_until(&mut world, end);
    verifier.finish(meta)
}

/// Resource accounting of one run, for `--mem-report`.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// The run's metric summary.
    pub summary: Summary,
    /// Process peak RSS in kilobytes (`VmHWM`), where the platform exposes
    /// it. Note: a process-wide high-water mark, so it reflects the
    /// heaviest world this process ever built, not necessarily this run.
    pub peak_rss_kb: Option<u64>,
    /// Event-arena occupancy at end of run: live slots.
    pub arena_live: usize,
    /// Event-arena high-water mark: total slots ever in use at once.
    pub arena_total: usize,
    /// Events executed by the run.
    pub events_executed: u64,
    /// Events still queued at the horizon.
    pub events_queued: usize,
    /// Bytes of slot buffer the event queue holds at the horizon.
    pub queue_buffer_bytes: usize,
    /// Peer-table heap occupancy at end of run.
    pub table: TableOccupancy,
}

/// Runs one seed and collects the memory/occupancy report alongside the
/// summary (the run itself is identical to [`run_once`]).
pub fn run_once_with_stats(scenario: &Scenario, seed: u64) -> RunStats {
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = World::new(cfg);
    if let Some(adv) = scenario.attack.build() {
        world.install_adversary(adv);
    }
    let mut eng: Engine<World> = engine_for(&scenario.cfg);
    world.start(&mut eng);
    let end = SimTime::ZERO + scenario.run_length;
    eng.run_until(&mut world, end);
    let (arena_live, arena_total) = eng.arena_occupancy();
    RunStats {
        summary: world.metrics.summarize(end),
        peak_rss_kb: peak_rss_kb(),
        arena_live,
        arena_total,
        events_executed: eng.executed(),
        events_queued: eng.queued(),
        queue_buffer_bytes: eng.queue_buffer_bytes(),
        table: world.peers.occupancy(),
    }
}

/// The process's peak resident set size in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `seeds` seeds of a scenario and returns the mean summary.
pub fn run_scenario(scenario: &Scenario, seeds: u64) -> Summary {
    let runs: Vec<Summary> = (0..seeds).map(|s| run_once(scenario, s + 1)).collect();
    Summary::mean_of(&runs)
}

/// Runs a batch of (key, scenario) jobs × seeds across worker threads;
/// returns mean summaries in input order.
///
/// Workers claim work items by bumping one atomic cursor — no queue lock
/// to contend on or poison. Results are slotted by seed index, not
/// completion order, so the mean (a float reduction, hence
/// order-sensitive) is byte-identical no matter how many threads raced —
/// `threads = 1` and `threads = 4` agree exactly.
pub fn run_batch(jobs: &[Scenario], seeds: u64, threads: usize) -> Vec<Summary> {
    run_batch_observed(jobs, seeds, threads, None, None)
}

/// [`run_batch`] with instruments: workers share the session's metric
/// handles, and each worker profiles into its own tree (under a
/// `worker-chunk` root) that is merged into `profiler` as it exits.
pub fn run_batch_observed(
    jobs: &[Scenario],
    seeds: u64,
    threads: usize,
    session: Option<&crate::obs::ObsSession>,
    profiler: Option<&Mutex<Profiler>>,
) -> Vec<Summary> {
    // Expand into (job index, seed) work items, claimed by atomic index.
    let work: Vec<(usize, u64)> = (0..jobs.len())
        .flat_map(|j| (0..seeds).map(move |s| (j, s + 1)))
        .collect();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Vec<Option<Summary>>>> = (0..jobs.len())
        .map(|_| Mutex::new(vec![None; seeds as usize]))
        .collect();

    let threads = threads.max(1).min(work.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Profilers are single-threaded (`Rc`); each worker grows
                // its own tree and merges it on the way out.
                let wprof = profiler.map(|_| Profiler::shared());
                let ins = match session {
                    Some(s) => s.instruments(wprof.clone()),
                    None => Instruments::default(),
                };
                let chunk = Span::enter(&wprof, "worker-chunk");
                loop {
                    let item = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(j, seed)) = work.get(item) else {
                        break;
                    };
                    let summary = if ins.is_off() {
                        run_once(&jobs[j], seed)
                    } else {
                        run_once_observed(&jobs[j], seed, &ins).0
                    };
                    lock(&results[j])[(seed - 1) as usize] = Some(summary);
                }
                drop(chunk);
                if let (Some(wp), Some(merged)) = (wprof, profiler) {
                    lock(merged).absorb(&wp.borrow());
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            let slots = lock(&m);
            let runs: Vec<Summary> = slots.iter().flatten().cloned().collect();
            Summary::mean_of(&runs)
        })
        .collect()
}

/// Default worker-thread count: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use lockss_sim::Duration;

    fn tiny() -> Scenario {
        let mut s = Scenario::baseline(Scale::Quick, 2);
        s.run_length = Duration::from_days(120);
        s
    }

    #[test]
    fn run_once_is_deterministic() {
        let s = tiny();
        let a = run_once(&s, 7);
        let b = run_once(&s, 7);
        assert_eq!(a.successful_polls, b.successful_polls);
        assert!((a.loyal_effort_secs - b.loyal_effort_secs).abs() < 1e-9);
    }

    fn tiny_meta(seed: u64) -> TraceMeta {
        TraceMeta {
            scenario: "tiny".into(),
            scale: "quick".into(),
            seed,
            run_length_ms: tiny().run_length.as_millis(),
        }
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let s = tiny();
        let plain = run_once(&s, 5);
        let (recorded, _phases, trace) = run_once_recorded(&s, 5, &tiny_meta(5));
        assert_eq!(plain, recorded, "recording must be invisible to the run");
        assert!(trace.decode_all().unwrap().len() > 100, "stream captured");
    }

    #[test]
    fn faithful_replay_is_equivalent() {
        let s = tiny();
        let (_, _, trace) = run_once_recorded(&s, 5, &tiny_meta(5));
        let report = replay_once(&s, 5, &trace).unwrap();
        assert!(report.is_equivalent(), "{report}");
        assert!(report.events_matched > 100);
    }

    #[test]
    fn perturbed_replay_reports_the_first_divergence() {
        let s = tiny();
        let (_, _, trace) = run_once_recorded(&s, 5, &tiny_meta(5));
        let report = replay_once(&s, 6, &trace).unwrap();
        assert!(!report.is_equivalent(), "different seed must fork");
        let d = report.divergence.clone().expect("divergence");
        assert!(d.expected.is_some() || d.actual.is_some());
        // The report names the time and kind of the fork.
        let text = report.to_string();
        assert!(text.contains("day"), "{text}");
    }

    #[test]
    fn batch_matches_sequential() {
        let s = tiny();
        let seq = run_scenario(&s, 2);
        let batch = run_batch(std::slice::from_ref(&s), 2, 4);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].successful_polls, seq.successful_polls);
        assert!((batch[0].loyal_effort_secs - seq.loyal_effort_secs).abs() < 1e-6);
    }
}
