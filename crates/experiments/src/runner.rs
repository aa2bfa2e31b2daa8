//! The one run path: [`run`] turns a `(scenario, seed)` into a driven
//! world, optionally with a trace sink (record, or replay-verify) and
//! out-of-band instruments installed. Batches, sweeps, replay, fuzzing and
//! the figure reports are all callers of it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lockss_core::{CoreObs, TableOccupancy, World, WorldConfig};
use lockss_metrics::{PhaseSummary, Summary};
use lockss_obs::{SharedProfiler, Span};
use lockss_sim::{Engine, EngineObs, SimTime};
use lockss_trace::{Recorder, ReplayReport, Trace, TraceError, TraceMeta, Verifier};

use crate::obs::{SweepObs, WorkerObs};
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

/// The trace sink a run installs. Recording and replay are the same
/// execution with a different sink, not forks of the run loop.
///
/// Both handles are shared (`Rc`) clones: keep one, hand the other to
/// [`run`] — [`run`] seals a recorder itself ([`RunOutput::trace`]); a
/// verifier's owner calls `Verifier::finish` afterwards, as
/// [`replay_once`] does.
#[derive(Clone)]
pub enum Sink {
    /// Capture the run's full causal event stream.
    Record(Recorder),
    /// Check the run event-for-event against a recorded trace, aborting
    /// at the first divergence.
    Verify(Verifier),
}

/// What one [`run`] installs besides the scenario itself. `Default` is a
/// plain run: no sink, instruments off.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// The trace sink, if any.
    pub sink: Option<Sink>,
    /// Out-of-band metric handles and profiler.
    pub instruments: Instruments,
}

impl RunOptions {
    /// Options that record the run into a fresh [`Recorder`] for `meta`.
    pub fn record(meta: &TraceMeta) -> RunOptions {
        RunOptions {
            sink: Some(Sink::Record(Recorder::new(meta))),
            instruments: Instruments::default(),
        }
    }
}

/// Engine and peer-table occupancy at the horizon, for `--mem-report`.
#[derive(Clone, Debug, PartialEq)]
pub struct Occupancy {
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

/// Everything one [`run`] produced.
pub struct RunOutput {
    /// The run's metric summary.
    pub summary: Summary,
    /// The per-phase breakdown (empty unless the attack is a phased
    /// composite, which records a mark as each member starts).
    pub phases: Vec<PhaseSummary>,
    /// The sealed trace, when the run had a [`Sink::Record`] installed.
    pub trace: Option<Trace>,
    /// Engine and peer-table occupancy at the horizon.
    pub occupancy: Occupancy,
    /// The finished world, for callers that inspect more than the
    /// summary (fuzz oracles, the effort report).
    pub world: World,
}

/// Runs one seed of a scenario to its horizon — the only place a
/// [`Scenario`] becomes a driven [`World`]. Everything else (batches,
/// sweeps, replay, fuzzing, the figure reports) goes through here.
///
/// Neither a sink nor instruments perturb the run: trace emission never
/// touches the RNG or the event queue, and counters and spans only read
/// protocol state, so `summary` and `phases` are byte-identical for any
/// `opts` at the same `(scenario, seed)`.
pub fn run(scenario: &Scenario, seed: u64, opts: &RunOptions) -> RunOutput {
    let ins = &opts.instruments;
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = {
        let _span = Span::enter(&ins.profiler, "world-build");
        let mut world = World::new(cfg);
        match &opts.sink {
            Some(Sink::Record(r)) => world.set_trace_sink(Box::new(r.clone())),
            Some(Sink::Verify(v)) => world.set_trace_sink(Box::new(v.clone())),
            None => {}
        }
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
    drop(world.take_trace_sink());
    let trace = match &opts.sink {
        Some(Sink::Record(r)) => {
            let _span = Span::enter(&ins.profiler, "trace-seal");
            Some(r.clone().finish())
        }
        _ => None,
    };
    let (arena_live, arena_total) = eng.arena_occupancy();
    RunOutput {
        summary,
        phases,
        trace,
        occupancy: Occupancy {
            arena_live,
            arena_total,
            events_executed: eng.executed(),
            events_queued: eng.queued(),
            queue_buffer_bytes: eng.queue_buffer_bytes(),
            table: world.peers.occupancy(),
        },
        world,
    }
}

/// Runs one seed of a scenario to completion: [`run`] with no sink and no
/// instruments, keeping only the summary.
pub fn run_once(scenario: &Scenario, seed: u64) -> Summary {
    run(scenario, seed, &RunOptions::default()).summary
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
    let opts = RunOptions {
        sink: Some(Sink::Verify(verifier.clone())),
        instruments: Instruments::default(),
    };
    run(scenario, seed, &opts);
    verifier.finish(meta)
}

/// The process's peak resident set size in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Maps `f` over `items` on up to `threads` workers; results come back in
/// item order.
///
/// Workers claim items by bumping one atomic cursor — no queue lock to
/// contend on or poison — and write into item-indexed slots, so the output
/// never depends on which worker ran what, or on how many there were.
/// Each worker builds its own state with `worker_init` (instruments and
/// profilers are `!Send`) and drops it on the way out.
pub(crate) fn par_map<I: Sync, W, T: Send>(
    items: &[I],
    threads: usize,
    worker_init: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, &I) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let threads = threads.max(1).min(items.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut worker = worker_init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let out = f(&mut worker, item);
                    *slots[i]
                        .lock()
                        .expect("a slot lock is never held across a panic") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot lock is never held across a panic")
                .expect("the scope joined every worker, so every item ran")
        })
        .collect()
}

/// Runs a batch of scenarios × seeds `1..=seeds` across worker threads;
/// returns the mean summary of each scenario, in input order.
///
/// Per-seed results are slotted by `(scenario, seed)`, not completion
/// order, so the mean (a float reduction, hence order-sensitive) is
/// byte-identical no matter how many threads raced — `threads = 1` and
/// `threads = 4` agree exactly.
///
/// With `obs`, workers share the session's metric handles and each
/// profiles into its own tree (under a `worker-chunk` root) that is
/// merged into `obs.profiler` as it exits; `obs.telemetry` is a sweep
/// feature and is not used here.
pub fn run_batch(
    jobs: &[Scenario],
    seeds: u64,
    threads: usize,
    obs: Option<&SweepObs<'_>>,
) -> Vec<Summary> {
    let work: Vec<(usize, u64)> = (0..jobs.len())
        .flat_map(|j| (0..seeds).map(move |s| (j, s + 1)))
        .collect();
    let runs = par_map(
        &work,
        threads,
        || WorkerObs::enter(obs),
        |worker, &(j, seed)| run(&jobs[j], seed, &worker.options).summary,
    );
    runs.chunks(seeds as usize).map(Summary::mean_of).collect()
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
    use crate::obs::ObsSession;
    use crate::scale::Scale;
    use lockss_obs::Profiler;
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

    fn record(s: &Scenario, seed: u64) -> (Summary, Trace) {
        let out = run(s, seed, &RunOptions::record(&tiny_meta(seed)));
        (
            out.summary,
            out.trace.expect("a recorded run seals a trace"),
        )
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let s = tiny();
        let plain = run_once(&s, 5);
        let (recorded, trace) = record(&s, 5);
        assert_eq!(plain, recorded, "recording must be invisible to the run");
        assert!(trace.decode_all().unwrap().len() > 100, "stream captured");
    }

    #[test]
    fn faithful_replay_is_equivalent() {
        let s = tiny();
        let (_, trace) = record(&s, 5);
        let report = replay_once(&s, 5, &trace).unwrap();
        assert!(report.is_equivalent(), "{report}");
        assert!(report.events_matched > 100);
    }

    #[test]
    fn perturbed_replay_reports_the_first_divergence() {
        let s = tiny();
        let (_, trace) = record(&s, 5);
        let report = replay_once(&s, 6, &trace).unwrap();
        assert!(!report.is_equivalent(), "different seed must fork");
        let d = report.divergence.clone().expect("divergence");
        assert!(d.expected.is_some() || d.actual.is_some());
        // The report names the time and kind of the fork.
        let text = report.to_string();
        assert!(text.contains("day"), "{text}");
    }

    /// A recorder *and* full instruments in one run — a combination no
    /// entry point could express before [`run`] — changes nothing the
    /// plain run reports, and its trace replays.
    #[test]
    fn recorder_plus_instruments_equals_the_plain_run() {
        let s = tiny();
        let plain = run(&s, 5, &RunOptions::default());
        assert!(plain.trace.is_none(), "no sink, no trace");

        let session = ObsSession::new();
        let profiler = Profiler::shared();
        let opts = RunOptions {
            instruments: session.instruments(Some(profiler.clone())),
            ..RunOptions::record(&tiny_meta(5))
        };
        let both = run(&s, 5, &opts);
        assert_eq!(both.summary, plain.summary);
        assert_eq!(both.phases, plain.phases);
        assert_eq!(both.occupancy, plain.occupancy);
        assert_eq!(
            session.engine.events_executed.get(),
            plain.occupancy.events_executed,
            "the instruments were live, not ignored"
        );
        let spans = profiler.borrow().to_json("tiny");
        for name in ["world-build", "simulate", "trace-seal"] {
            assert!(spans.contains(name), "no '{name}' span in {spans}");
        }
        let trace = both.trace.expect("a recorded run seals a trace");
        let report = replay_once(&s, 5, &trace).unwrap();
        assert!(report.is_equivalent(), "{report}");
    }

    #[test]
    fn batch_matches_sequential() {
        let s = tiny();
        let seq = Summary::mean_of(&[run_once(&s, 1), run_once(&s, 2)]);
        let batch = run_batch(std::slice::from_ref(&s), 2, 4, None);
        assert_eq!(batch, vec![seq]);
    }
}
