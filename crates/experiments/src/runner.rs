//! The one run path: a [`Run`] builds a world, optionally with a trace
//! sink (record, or replay-verify) and an observability session installed,
//! and drives it in as many steps as its caller asks for. [`run`] turns a
//! `(scenario, seed)` into one such run to the horizon; batches, sweeps,
//! replay, fuzzing and the figure reports are all callers of it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lockss_core::{Adversary, TableOccupancy, World, WorldConfig};
use lockss_metrics::{PhaseSummary, Summary};
use lockss_obs::{SharedProfiler, Span};
use lockss_sim::{Duration, Engine, SimTime};
use lockss_trace::{Recorder, ReplayReport, Trace, TraceError, TraceMeta, Verifier};

use crate::obs::ObsSession;
use crate::scenario::{Scenario, MAX_RUN_DAYS};

/// An engine pre-sized for the scenario's population: a 10k+-peer world
/// schedules (peers × AUs) first-poll events plus per-peer damage timers
/// before the first event runs, and the in-flight message population
/// scales the same way. Sizing up front allocates the event queue's first
/// chunks in one go (more are allocated on demand, and every chunk is
/// reused as it drains).
fn engine_for(cfg: &WorldConfig) -> Engine<World> {
    let outstanding = cfg.n_peers * (cfg.n_aus + 1) * 4;
    Engine::with_capacity(outstanding.clamp(1024, 1 << 22))
}

/// The trace sink a run installs. Recording and replay are the same
/// execution with a different sink, not forks of the run loop.
///
/// Both handles are shared (`Rc`) clones: keep one, hand the other to a
/// [`Run`] — [`Run::finish`] seals a recorder itself
/// ([`RunOutput::trace`]); a verifier's owner calls `Verifier::finish`
/// afterwards, as [`replay_once`] does.
#[derive(Clone)]
pub enum Sink {
    /// Capture the run's full causal event stream.
    Record(Recorder),
    /// Check the run event-for-event against a recorded trace, aborting
    /// at the first divergence.
    Verify(Verifier),
}

/// What one [`Run`] installs besides its world and adversary. `Default` is a
/// plain run: no sink, no session.
///
/// Neither perturbs the run: trace emission never touches the RNG or the
/// event queue, and the session's counters and spans only read protocol
/// state, so summaries, traces and reports are byte-identical with or
/// without them (enforced by `tests/observability.rs`). A run without a
/// session pays one `Option` check per instrumented site.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// The trace sink, if any.
    pub sink: Option<Sink>,
    /// The session whose metric handles count the run and whose span tree,
    /// when it profiles, absorbs the run's at [`Run::finish`].
    pub obs: Option<Arc<ObsSession>>,
}

impl RunOptions {
    /// Options that record the run into a fresh [`Recorder`] for `meta`.
    pub fn record(meta: &TraceMeta) -> RunOptions {
        RunOptions {
            sink: Some(Sink::Record(Recorder::new(meta))),
            obs: None,
        }
    }
}

/// Engine and peer-table occupancy at the horizon, for `--mem-report`.
#[derive(Clone, Debug, PartialEq)]
pub struct Occupancy {
    /// Events executed by the run.
    pub events_executed: u64,
    /// Events still queued at the horizon.
    pub events_queued: usize,
    /// The most events ever queued at once.
    pub events_high_water: usize,
    /// Approximate bytes of the event queue: its chunks and slot heads.
    pub queue_bytes: usize,
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

/// A world driven in the steps its caller asks for — the one place a
/// [`World`] and its [`Engine`] are built. [`run`] takes one step, to the
/// horizon; the churn report and the recovery study look at
/// [`Run::world`] between steps. Slicing never changes the run: an event
/// stamped at a step's target runs in the next step, in the order one
/// step would have run it.
pub struct Run {
    world: World,
    eng: Engine<World>,
    /// The last [`Run::advance_to`] target, where [`Run::finish`]
    /// summarises.
    end: SimTime,
    opts: RunOptions,
    /// This run's own span tree, when its session profiles.
    profiler: Option<SharedProfiler>,
}

impl Run {
    /// Builds and starts the world for `cfg` (its seed included) with
    /// `opts`'s sink, `opts`'s session handles and a fresh profiler (when
    /// the session profiles) and `adversary` installed. Nothing has run
    /// yet: the clock is at zero.
    pub fn start(
        cfg: WorldConfig,
        adversary: Option<Box<dyn Adversary>>,
        opts: &RunOptions,
    ) -> Run {
        let profiler = opts.obs.as_ref().and_then(|o| o.run_profiler());
        let _span = Span::enter(&profiler, "world-build");
        let mut world = World::new(cfg);
        match &opts.sink {
            Some(Sink::Record(r)) => world.set_trace_sink(Box::new(r.clone())),
            Some(Sink::Verify(v)) => world.set_trace_sink(Box::new(v.clone())),
            None => {}
        }
        if let Some(adv) = adversary {
            world.install_adversary(adv);
        }
        let mut eng = engine_for(&world.cfg);
        if let Some(obs) = &opts.obs {
            world.set_obs(obs.core.clone());
            eng.set_obs(obs.engine.clone());
        }
        if let Some(prof) = &profiler {
            world.set_profiler(prof.clone());
        }
        world.start(&mut eng);
        Run {
            world,
            eng,
            end: SimTime::ZERO,
            opts: opts.clone(),
            profiler,
        }
    }

    /// Runs every event stamped before `until`, in engine loops of at most
    /// 30 simulated days: the engine publishes its metrics as each returns,
    /// so a sweep heartbeat sees a seed advance. The clock finishes at
    /// `until` unless an event requests a stop, as a replay divergence does.
    ///
    /// # Panics
    ///
    /// Panics, naming the limit, if `until` lies past [`MAX_RUN_DAYS`].
    pub fn advance_to(&mut self, until: SimTime) {
        self.end = horizon(until.since(SimTime::ZERO)).unwrap_or_else(|e| panic!("{e}"));
        let _span = Span::enter(&self.profiler, "simulate");
        while self.eng.now() < until {
            let step = (self.eng.now() + Duration::from_days(30)).min(until);
            self.eng.run_until(&mut self.world, step);
            if self.eng.stop_requested() {
                break;
            }
        }
    }

    /// The world as the last step left it.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Joins a new loyal peer at the current instant; returns its index.
    pub fn join_loyal_peer(&mut self) -> usize {
        self.world.join_loyal_peer(&mut self.eng)
    }

    /// Summarises the run at the last [`Run::advance_to`] target, seals a
    /// recorder's trace, reads the occupancy and merges the run's spans
    /// into its session's.
    pub fn finish(mut self) -> RunOutput {
        let summary = self.world.metrics.summarize(self.end);
        let phases = self.world.metrics.phase_summaries(self.end);
        drop(self.world.take_trace_sink());
        let trace = match &self.opts.sink {
            Some(Sink::Record(r)) => {
                let _span = Span::enter(&self.profiler, "trace-seal");
                Some(r.clone().finish())
            }
            _ => None,
        };
        if let (Some(obs), Some(prof)) = (&self.opts.obs, &self.profiler) {
            obs.absorb(&prof.borrow());
        }
        let (eng, world) = (self.eng, self.world);
        let (events_queued, events_high_water) = eng.arena_occupancy();
        RunOutput {
            summary,
            phases,
            trace,
            occupancy: Occupancy {
                events_executed: eng.executed(),
                events_queued,
                events_high_water,
                queue_bytes: eng.queue_bytes(),
                table: world.occupancy(),
            },
            world,
        }
    }
}

/// Runs one seed of a scenario to its horizon: a [`Run`] advanced in one
/// step. Everything else (batches, sweeps, replay, fuzzing, the figure
/// reports) goes through here.
///
/// Neither a sink nor a session perturbs the run (see [`RunOptions`]), so
/// `summary` and `phases` are byte-identical for any `opts` at the same
/// `(scenario, seed)`.
///
/// # Panics
///
/// Panics, naming the limit, if the run would last past
/// [`MAX_RUN_DAYS`].
pub fn run(scenario: &Scenario, seed: u64, opts: &RunOptions) -> RunOutput {
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut run = Run::start(cfg, scenario.attack.build(), opts);
    run.advance_to(SimTime::ZERO + scenario.run_length);
    run.finish()
}

/// The instant a run of `run_length` ends, refused past the last instant a
/// known-peers entry can stamp.
fn horizon(run_length: Duration) -> Result<SimTime, String> {
    let last = Duration::from_days(MAX_RUN_DAYS);
    if run_length > last {
        return Err(format!(
            "a run of {} ms lasts past the last instant a known-peers entry can \
             stamp (at most {MAX_RUN_DAYS} days, {} ms)",
            run_length.as_millis(),
            last.as_millis()
        ));
    }
    Ok(SimTime::ZERO + run_length)
}

/// Runs one seed of a scenario to completion: [`run`] with no sink and no
/// session, keeping only the summary.
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
        obs: None,
    };
    run(scenario, seed, &opts);
    verifier.finish(meta)
}

/// How many workers [`par_map`] starts for `items` items on `threads`
/// threads: at least one, and no more than there are items.
pub(crate) fn workers(threads: usize, items: usize) -> usize {
    threads.max(1).min(items.max(1))
}

/// Maps `f` over `items` on [`workers`] threads; results come back in item
/// order.
///
/// Workers claim items by bumping one atomic cursor — no queue lock to
/// contend on or poison — and write into item-indexed slots, so the output
/// never depends on which worker ran what, or on how many there were. A
/// panic in `f` ends the process under the release profile (`panic =
/// "abort"`); in a build that unwinds, such as a test harness, the scope
/// re-raises it once every worker has stopped.
pub(crate) fn par_map<I: Sync, T: Send>(
    items: &[I],
    threads: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers(threads, items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let out = f(item);
                *slots[i]
                    .lock()
                    .expect("a slot is locked only to store a result") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is locked only to store a result")
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
/// With `obs`, every run reports to that session (see [`RunOptions`]);
/// its heartbeats are a sweep feature and are not written here.
pub fn run_batch(
    jobs: &[Scenario],
    seeds: u64,
    threads: usize,
    obs: Option<&Arc<ObsSession>>,
) -> Vec<Summary> {
    let work: Vec<(usize, u64)> = (0..jobs.len())
        .flat_map(|j| (0..seeds).map(move |s| (j, s + 1)))
        .collect();
    let runs = par_map(&work, threads, |&(j, seed)| {
        let opts = RunOptions {
            sink: None,
            obs: obs.cloned(),
        };
        run(&jobs[j], seed, &opts).summary
    });
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
    use crate::scale::Scale;
    use lockss_core::reputation::KnownPeers;

    fn tiny() -> Scenario {
        let mut s = Scenario::baseline(Scale::Quick, 2);
        s.run_length = Duration::from_days(120);
        s
    }

    /// The largest accepted run ends exactly on a day at or before the
    /// last known-peers stamp; one day more is refused, naming the limit.
    #[test]
    fn the_horizon_stops_at_the_last_stamp() {
        let last = Duration::from_days(MAX_RUN_DAYS);
        assert_eq!(horizon(last), Ok(SimTime::ZERO + last));
        assert!(SimTime::ZERO + last <= KnownPeers::LAST_STAMP);
        let err = horizon(last + Duration::DAY).unwrap_err();
        assert!(
            err.contains(&format!("at most {MAX_RUN_DAYS} days")),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "lasts past the last instant a known-peers entry can stamp")]
    fn run_refuses_a_horizon_past_the_last_stamp() {
        let s = tiny().with_run_length(Duration::from_days(MAX_RUN_DAYS + 1));
        run_once(&s, 1);
    }

    /// A step publishes the engine's metrics every 30 simulated days, not
    /// only when it returns: an event on day 45 reads the events the first
    /// 30 days executed from the session's counter.
    #[test]
    fn a_step_publishes_the_engine_metrics_as_it_goes() {
        let session = Arc::new(ObsSession::new());
        let opts = RunOptions {
            sink: None,
            obs: Some(Arc::clone(&session)),
        };
        let mut run = Run::start(tiny().cfg, None, &opts);
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let (cell, events) = (
            std::rc::Rc::clone(&seen),
            session.engine.events_executed.clone(),
        );
        run.eng
            .schedule_at(SimTime::ZERO + Duration::from_days(45), move |_, _| {
                cell.set(events.get())
            });
        run.advance_to(SimTime::ZERO + Duration::from_days(60));
        assert!(seen.get() > 0, "nothing published by day 45");
        assert!(seen.get() < run.eng.executed());
        assert_eq!(session.engine.events_executed.get(), run.eng.executed());
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

    /// A recorder *and* a profiling session in one run changes nothing the
    /// plain run reports, and its trace replays.
    #[test]
    fn recorder_plus_instruments_equals_the_plain_run() {
        let s = tiny();
        let plain = run(&s, 5, &RunOptions::default());
        assert!(plain.trace.is_none(), "no sink, no trace");

        let session = Arc::new(ObsSession::new().profiled());
        let opts = RunOptions {
            obs: Some(session.clone()),
            ..RunOptions::record(&tiny_meta(5))
        };
        let both = run(&s, 5, &opts);
        assert_eq!(both.summary, plain.summary);
        assert_eq!(both.phases, plain.phases);
        assert_eq!(both.occupancy, plain.occupancy);
        assert_eq!(
            session.engine.events_executed.get(),
            plain.occupancy.events_executed,
            "the session was live, not ignored"
        );
        let spans = session.profile_json("tiny").expect("the session profiles");
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
