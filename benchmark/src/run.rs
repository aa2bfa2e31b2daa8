//! One rep of a workload, driven from outside through the crates' public
//! functions: build the scenario from the registry, build and start the
//! world, run the engine, summarise — and, on the recording workload, the
//! trace write and read sides.
//!
//! The same code serves the untraced reps (spans off, no observers) and
//! the traced rep (spans on, [`Observe`] installed); only the latter
//! slices `run_until` and counts allocations.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use lockss_core::{CoreObs, TraceEvent, TraceEventKind, TraceSink, World, WorldConfig};
use lockss_crypto::sha256::{sha256, to_hex};
use lockss_experiments::sweep::summary_to_json;
use lockss_experiments::Scenario;
use lockss_metrics::Summary;
use lockss_obs::{Profiler, RegistryBuilder, SharedProfiler};
use lockss_sim::{Duration, Engine, EngineObs, SimTime};
use lockss_trace::{
    diff_traces_threaded, export_csv, trace_stats_threaded, Recorder, Trace, TraceMeta,
};

use crate::alloc;
use crate::host;
use crate::spans::Spans;
use crate::workloads::{self, Part};
use crate::Args;

/// Simulated width of one `run_until` slice in the traced rep.
const SLICE: Duration = Duration::from_days(30);

/// Counts checked steps. An op is one scenario run or one trace verb; it
/// fails on an `Err` or a failed self-check (a panic ends the process).
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Records one op; `ok == false` fails it and says why on stderr.
    pub fn step(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

/// Per-kind and per-verdict event counts of one or more runs.
#[derive(Default, Debug, Clone)]
pub struct Counts {
    pub kinds: [u64; TraceEventKind::COUNT],
    pub verdicts: [u64; 5],
    pub suppressed: u64,
}

impl Counts {
    pub fn kind(&self, k: TraceEventKind) -> u64 {
        self.kinds[k.code() as usize - 1]
    }

    /// Verdicts that admitted the invitation (ordinary + introduced).
    pub fn admitted(&self) -> u64 {
        self.verdicts[0] + self.verdicts[1]
    }
}

/// The traced rep's sink: counts every event by kind, and forwards to a
/// recorder when the workload records (the world has one sink slot).
struct CountingSink {
    counts: Rc<RefCell<Counts>>,
    inner: Option<Recorder>,
}

impl TraceSink for CountingSink {
    fn record(&mut self, at: SimTime, seq: u64, event: &TraceEvent) {
        let mut c = self.counts.borrow_mut();
        c.kinds[event.kind().code() as usize - 1] += 1;
        match event {
            TraceEvent::Admission { verdict, .. } => c.verdicts[verdict.code() as usize] += 1,
            TraceEvent::MessageSend {
                suppressed: true, ..
            } => c.suppressed += 1,
            _ => {}
        }
        drop(c);
        if let Some(r) = &mut self.inner {
            r.record(at, seq, event);
        }
    }
}

/// One `run_until` slice of the traced rep.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub ns: u64,
    pub events: u64,
}

/// Everything the traced rep observes a run with. Strictly out-of-band:
/// the self-checks require the observed summary to equal the plain one.
pub struct Observe {
    pub counts: Rc<RefCell<Counts>>,
    pub core: CoreObs,
    pub engine: EngineObs,
    pub profiler: SharedProfiler,
    pub slices: Vec<Slice>,
    /// `(allocations, bytes)` made inside the `simulate` spans.
    pub allocs: (u64, u64),
}

impl Observe {
    pub fn new() -> Observe {
        let mut b = RegistryBuilder::new();
        Observe {
            counts: Rc::default(),
            core: CoreObs::register(&mut b),
            engine: EngineObs::register(&mut b),
            profiler: Profiler::shared(),
            slices: Vec::new(),
            allocs: (0, 0),
        }
    }
}

/// The result of one scenario run.
pub struct Outcome {
    pub summary: Summary,
    pub n_peers: usize,
    pub events: u64,
    pub queued: usize,
    pub arena_high: usize,
    pub setup_s: f64,
    pub simulate_s: f64,
    /// Simulate + summarise (+ seal when recording).
    pub body_s: f64,
    /// The sealed trace and the recorder's own event count.
    pub recorded: Option<(Trace, u64)>,
}

impl Outcome {
    /// Loyal polls concluded, successful or not.
    pub fn polls(&self) -> u64 {
        self.summary.successful_polls + self.summary.failed_polls
    }
}

/// The engine sizing `lockss_experiments::runner` applies to every run it
/// starts (its `engine_for` is private). Results do not depend on it; it
/// is mirrored so the measured path allocates the way `run_once` does.
fn engine_capacity(cfg: &WorldConfig) -> usize {
    (cfg.n_peers * (cfg.n_aus + 1) * 4).clamp(1024, 1 << 22)
}

/// Runs an already-built scenario: world build, start, simulate,
/// summarise. `meta` installs a recorder; `obs` installs the traced rep's
/// observers, slices the run and counts its allocations.
pub fn run_scenario(
    scn: &Scenario,
    seed: u64,
    meta: Option<&TraceMeta>,
    spans: &mut Spans,
    obs: Option<&mut Observe>,
) -> Outcome {
    let t_setup = Instant::now();
    spans.enter("world-build");
    let mut cfg = scn.cfg.clone();
    cfg.seed = seed;
    let mut world = World::new(cfg);
    let recorder = meta.map(Recorder::new);
    match (&obs, &recorder) {
        (Some(o), r) => world.set_trace_sink(Box::new(CountingSink {
            counts: Rc::clone(&o.counts),
            inner: r.clone(),
        })),
        (None, Some(r)) => world.set_trace_sink(Box::new(r.clone())),
        (None, None) => {}
    }
    if let Some(adv) = scn.attack.build() {
        world.install_adversary(adv);
    }
    let mut eng: Engine<World> = Engine::with_capacity(engine_capacity(&scn.cfg));
    if let Some(o) = &obs {
        world.set_obs(o.core.clone());
        world.set_profiler(Rc::clone(&o.profiler));
        eng.set_obs(o.engine.clone());
    }
    spans.exit();
    spans.scope("world-start", |_| world.start(&mut eng));
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_body = Instant::now();
    let end = SimTime::ZERO + scn.run_length;
    spans.enter("simulate");
    match obs {
        None => {
            eng.run_until(&mut world, end);
        }
        Some(o) => {
            let mut at = SimTime::ZERO;
            while at < end {
                at = (at + SLICE).min(end);
                spans.enter("slice");
                let t = Instant::now();
                let (events, made) = alloc::counted(|| eng.run_until(&mut world, at));
                let ns = t.elapsed().as_nanos() as u64;
                spans.exit();
                o.slices.push(Slice { ns, events });
                o.allocs.0 += made.0;
                o.allocs.1 += made.1;
            }
        }
    }
    spans.exit();
    let simulate_s = t_body.elapsed().as_secs_f64();
    let summary = spans.scope("summarize", |_| {
        let summary = world.metrics.summarize(end);
        std::hint::black_box(world.metrics.phase_summaries(end));
        summary
    });
    let recorded = recorder.map(|r| {
        let events = r.events();
        (spans.scope("trace-seal", |_| r.finish()), events)
    });
    let body_s = t_body.elapsed().as_secs_f64();
    Outcome {
        summary,
        n_peers: scn.cfg.n_peers,
        events: eng.executed(),
        queued: eng.queued(),
        arena_high: eng.arena_occupancy().1,
        setup_s,
        simulate_s,
        body_s,
        recorded,
    }
}

/// Builds one part from the registry, timed as part of set-up.
fn load(args: &Args, part: &Part, spans: &mut Spans) -> (Scenario, f64) {
    let t = Instant::now();
    let scn = spans.scope("registry-load", |_| workloads::build(part, args.smoke));
    (scn, t.elapsed().as_secs_f64())
}

/// The header a recording of `part` carries.
fn meta_for(args: &Args, part: &Part, scn: &Scenario, seed: u64) -> TraceMeta {
    TraceMeta {
        scenario: part.scenario.to_string(),
        scale: part.scale_at(args.smoke).label().to_string(),
        seed,
        run_length_ms: scn.run_length.as_millis(),
    }
}

/// Timings of the trace verbs of one round trip.
#[derive(Default, Clone, Copy, Debug)]
pub struct TraceSide {
    pub write_s: f64,
    pub read_verify_s: f64,
    pub decode_s: f64,
    pub stats_s: f64,
    pub diff_s: f64,
    pub export_s: f64,
    pub events: u64,
    pub bytes: u64,
}

impl TraceSide {
    /// Everything after the recorded run: the body's trace share.
    pub fn total_s(&self) -> f64 {
        self.write_s
            + self.read_verify_s
            + self.decode_s
            + self.stats_s
            + self.diff_s
            + self.export_s
    }
}

fn timed<R>(spans: &mut Spans, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = spans.scope(name, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// Write side then read side of one sealed trace: write the file, read it
/// back (seal verified), decode every record, stats and diff on `nproc`
/// threads (the diff is against `cmp`, the seed+1 recording), export the
/// CSV timeline. Each verb is one op.
pub fn roundtrip(
    trace: &Trace,
    recorded_events: u64,
    cmp: &Trace,
    file: &Path,
    spans: &mut Spans,
    ops: &mut Ops,
) -> TraceSide {
    let threads = host::nproc();
    let mut side = TraceSide {
        events: trace.events(),
        bytes: trace.as_bytes().len() as u64,
        ..TraceSide::default()
    };
    let (wrote, s) = timed(spans, "write", || trace.write_to(file));
    side.write_s = s;
    ops.step("trace write", wrote.is_ok());

    let (read, s) = timed(spans, "read-verify", || Trace::read_from(file));
    side.read_verify_s = s;
    ops.step(
        "trace read back identical, seal verified",
        matches!(&read, Ok(t) if t == trace),
    );
    let trace = read.as_ref().unwrap_or(trace);

    let (decoded, s) = timed(spans, "decode", || trace.decode_all().map(|r| r.len()));
    side.decode_s = s;
    ops.step(
        "decode_all().len() == Recorder::events",
        decoded.is_ok_and(|n| n as u64 == recorded_events && recorded_events == side.events),
    );

    let (stats, s) = timed(spans, "stats", || trace_stats_threaded(trace, threads));
    side.stats_s = s;
    ops.step("trace stats", stats.is_ok());

    let (diff, s) = timed(spans, "diff", || diff_traces_threaded(trace, cmp, threads));
    side.diff_s = s;
    ops.step(
        "seed N vs N+1 diff is not identical",
        diff.is_ok_and(|d| !d.is_identical()),
    );

    let (csv, s) = timed(spans, "export", || export_csv(trace, threads, 30));
    side.export_s = s;
    ops.step("trace export", csv.is_ok_and(|c| c.lines().count() > 1));
    side
}

/// What one rep of a workload produced.
pub struct Rep {
    pub setup_s: f64,
    pub body_s: f64,
    pub polls: u64,
    /// One outcome per part, in part order.
    pub outcomes: Vec<Outcome>,
    /// SHA-256 over the parts' `summary_to_json`, hex.
    pub digest: String,
    /// The recording workload's trace side.
    pub side: Option<TraceSide>,
    pub trace_hash: Option<String>,
}

/// Where the workload keeps the trace file its body writes and reads.
pub fn trace_file(args: &Args) -> std::path::PathBuf {
    args.out_dir
        .join(format!("trace-{}.ltrc", args.workload.name))
}

/// One rep: every part in sequence; on the recording workload the parts
/// are recorded and round-tripped (`cmp` is the comparison trace recorded
/// during set-up). Each scenario run is one op.
pub fn rep(
    args: &Args,
    cmp: Option<&Trace>,
    spans: &mut Spans,
    mut obs: Option<&mut Observe>,
    ops: &mut Ops,
) -> Rep {
    let (w, seed) = (args.workload, args.seed);
    spans.next_run();
    let mut r = Rep {
        setup_s: 0.0,
        body_s: 0.0,
        polls: 0,
        outcomes: Vec::new(),
        digest: String::new(),
        side: None,
        trace_hash: None,
    };
    let mut summaries = String::new();
    for part in w.parts {
        spans.enter(&format!("run:{}", part.scenario));
        let (scn, load_s) = load(args, part, spans);
        let meta = w.records.then(|| meta_for(args, part, &scn, seed));
        let name = if w.records { "record-run" } else { "plain-run" };
        spans.enter(name);
        let mut out = run_scenario(&scn, seed, meta.as_ref(), spans, obs.as_deref_mut());
        spans.exit();
        r.setup_s += load_s + out.setup_s;
        r.body_s += out.body_s;
        r.polls += out.polls();
        summaries.push_str(&summary_to_json(&out.summary));
        ops.step(&format!("run {}", part.scenario), out.polls() > 0);
        if let (Some((trace, events)), Some(cmp)) = (out.recorded.take(), cmp) {
            let side = roundtrip(&trace, events, cmp, &trace_file(args), spans, ops);
            r.body_s += side.total_s();
            r.side = Some(side);
            r.trace_hash = Some(trace.content_hash());
        }
        spans.exit();
        r.outcomes.push(out);
    }
    r.digest = to_hex(&sha256(summaries.as_bytes()));
    r
}

/// Records `part` at `seed` with no observers and returns the sealed
/// trace with the recorder's own event count beside the outcome: the
/// comparison trace of the recording workload, and the probe recordings.
pub fn record(
    args: &Args,
    part: &Part,
    scn: &Scenario,
    seed: u64,
    spans: &mut Spans,
) -> (Outcome, Trace, u64) {
    let meta = meta_for(args, part, scn, seed);
    let mut out = run_scenario(scn, seed, Some(&meta), spans, None);
    let (trace, events) = out
        .recorded
        .take()
        .expect("a recorded run returns its trace");
    (out, trace, events)
}

/// The seed+1 recording of the recording workload's part, which its diff
/// compares against; `None` on the workloads that record nothing.
pub fn comparison_trace(args: &Args, spans: &mut Spans) -> Option<Trace> {
    let part = &args.workload.parts[0];
    args.workload.records.then(|| {
        let scn = workloads::build(part, args.smoke);
        record(args, part, &scn, args.seed + 1, spans).1
    })
}
