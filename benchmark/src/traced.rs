//! `--trace 1`: the traced run of one workload, never mixed into the
//! end-to-end numbers.
//!
//! 1. one untraced rep (the base of `obs.traced_overhead_ratio`);
//! 2. one traced rep: spans on, counting sink, `Instruments`-style
//!    observers, `run_until` in 30-day slices, allocations counted;
//! 3. side probes for the layers the body does not exercise, so every
//!    layer metric is a measurement on every workload: a trace probe
//!    (plain/recorded pair, round trip, replay), a sweep probe, one short
//!    untraced run per attack scenario, and the layer kernels at the
//!    workload's own measured size.
//!
//! Everything lands in `out/trace-<workload>.json` when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use lockss_core::TraceEventKind as Kind;
use lockss_experiments::runner::replay_once;
use lockss_experiments::{run_sweep, Scale, Scenario};
use lockss_sim::json;
use lockss_trace::{trace_stats_threaded, Trace};

use crate::host;
use crate::kernels;
use crate::metrics::PER_LAYER;
use crate::run::{self, Observe, Ops, Outcome, TraceSide};
use crate::spans::Spans;
use crate::stats::{median, ratio, share_est};
use crate::workloads::{self, Part};
use crate::Args;

/// Horizon of the per-attack probes on workloads other than `attack-mix`.
const ATTACK_PROBE_DAYS: u64 = 60;
/// Seeds the sweep probe fans out.
const SWEEP_SEEDS: u64 = 4;

/// The parts of `attack-mix`, with the names of their split metrics.
const ATTACKS: [(&str, &str, &str); 4] = [
    (
        "admission-flood",
        "adversary.admission-flood.run_s",
        "adversary.admission-flood.ns_per_event",
    ),
    (
        "vote-flood",
        "adversary.vote-flood.run_s",
        "adversary.vote-flood.ns_per_event",
    ),
    (
        "pipe-stoppage",
        "adversary.pipe-stoppage.run_s",
        "adversary.pipe-stoppage.ns_per_event",
    ),
    (
        "brute-force-remaining",
        "adversary.brute-force-remaining.run_s",
        "adversary.brute-force-remaining.ns_per_event",
    ),
];

/// Named values collected during the run, in no particular order.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.0.push((name, v));
    }
}

/// One node of a `lockss-profile-v1` span forest: name, total ns, children.
fn profile_node(n: &json::Value) -> Option<(&str, f64, &[json::Value])> {
    let o = n.as_object("span").ok()?;
    Some((
        json::get(o, "name").ok()?.as_str("name").ok()?,
        json::get(o, "total_ns").ok()?.as_f64("total_ns").ok()?,
        json::get(o, "children").ok()?.as_array("children").ok()?,
    ))
}

/// Total ns of the nodes called `name`, anywhere below `nodes`.
fn profile_ns(nodes: &[json::Value], name: &str) -> f64 {
    nodes
        .iter()
        .filter_map(profile_node)
        .map(|(n, ns, children)| {
            let own = if n == name { ns } else { 0.0 };
            own + profile_ns(children, name)
        })
        .sum()
}

/// The in-program profile's `(poll-evaluate, poll-finalize, all roots)`
/// totals in ns. Roots are summed once so nested spans are not counted
/// twice in the attributed share.
fn profile_totals(doc: &str) -> (f64, f64, f64) {
    let parsed = json::parse(doc).ok();
    let roots = parsed
        .as_ref()
        .and_then(|v| v.as_object("profile").ok())
        .and_then(|o| json::get(o, "spans").ok())
        .and_then(|s| s.as_array("spans").ok())
        .unwrap_or(&[]);
    (
        profile_ns(roots, "poll-evaluate"),
        profile_ns(roots, "poll-finalize"),
        roots.iter().filter_map(profile_node).map(|n| n.1).sum(),
    )
}

/// What the trace probe measured.
struct TraceProbe {
    plain_s: f64,
    record_run_s: f64,
    side: TraceSide,
    replay_s: f64,
    trace: Trace,
}

/// Trace layer, from outside. On a workload whose body records nothing:
/// a plain/recorded pair of the first part at the probe horizon, the
/// seed+1 recording, the full round trip and a verified replay. On the
/// recording workload the body already is that round trip, so `base` (the
/// untraced rep) supplies the verb timings and only the plain run and the
/// replay are added, at the body's own horizon.
fn trace_probe(
    args: &Args,
    base: &run::Rep,
    spans: &mut Spans,
    ops: &mut Ops,
) -> Result<TraceProbe, String> {
    let w = args.workload;
    let part = if w.records {
        w.parts[0]
    } else {
        w.probe_part()
    };
    let scn = workloads::build(&part, args.smoke);
    let plain = spans.scope("plain-run", |s| {
        run::run_scenario(&scn, args.seed, None, s, None)
    });

    let (trace, record_run_s, side) = match &base.side {
        Some(side) => {
            let file = run::trace_file(args);
            let trace = Trace::read_from(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            ops.step(
                "recorded Summary == plain",
                base.outcomes[0].summary == plain.summary,
            );
            (trace, base.outcomes[0].body_s, *side)
        }
        None => {
            let (rec, trace, events) = spans.scope("record-run", |s| {
                run::record(args, &part, &scn, args.seed, s)
            });
            let (_, cmp, _) = spans.scope("record-run:seed+1", |s| {
                run::record(args, &part, &scn, args.seed + 1, s)
            });
            ops.step("recorded Summary == plain", rec.summary == plain.summary);
            let file = args.out_dir.join(format!("probe-{}.ltrc", w.name));
            let side = run::roundtrip(&trace, events, &cmp, &file, spans, ops);
            let _ = std::fs::remove_file(&file);
            (trace, rec.body_s, side)
        }
    };

    let stats = |threads| trace_stats_threaded(&trace, threads).map(|s| s.to_json());
    let same = spans.scope(
        "stats-threads-check",
        |_| matches!((stats(1), stats(host::nproc())), (Ok(a), Ok(b)) if a == b),
    );
    ops.step("stats JSON identical at threads 1 vs nproc", same);

    let t = Instant::now();
    let report = spans.scope("replay-verify", |_| replay_once(&scn, args.seed, &trace));
    let replay_s = t.elapsed().as_secs_f64();
    ops.step(
        "replay_once equivalent",
        report.is_ok_and(|r| r.is_equivalent() && r.events_matched == trace.events()),
    );
    println!("trace-hash {}", trace.content_hash());
    Ok(TraceProbe {
        plain_s: plain.body_s,
        record_run_s,
        side,
        replay_s,
        trace,
    })
}

/// Sweep fabric, from outside: one seed on one thread for the single-run
/// wall, then [`SWEEP_SEEDS`] seeds on `nproc` threads with a checkpoint
/// file. Efficiency is Σ single-run walls ÷ (threads used × sweep wall).
fn sweep_probe(args: &Args, scn: &Scenario, spans: &mut Spans, ops: &mut Ops) -> (f64, f64) {
    let w = args.workload;
    let part = &w.parts[0];
    let scale = part.scale_at(args.smoke);
    let ckpt = args.out_dir.join(format!("sweep-{}.json", w.name));
    let seeds: Vec<u64> = (args.seed..args.seed + SWEEP_SEEDS).collect();
    let threads = host::nproc();
    let sweep = |seeds: &[u64], threads: usize, spans: &mut Spans| {
        let _ = std::fs::remove_file(&ckpt);
        let t = Instant::now();
        let report = spans.scope("sweep", |_| {
            run_sweep(
                scn,
                part.scenario,
                scale.label(),
                seeds,
                threads,
                Some(&ckpt),
                None,
            )
        });
        (report, t.elapsed().as_secs_f64())
    };
    let (one, single_s) = sweep(&seeds[..1], 1, spans);
    let (all, wall_s) = sweep(&seeds, threads, spans);
    let _ = std::fs::remove_file(&ckpt);
    ops.step(
        "sweep complete, seed N summary as on one thread",
        all.is_complete() && one.is_complete() && all.completed.first() == one.completed.first(),
    );
    let used = threads.min(seeds.len()) as f64;
    (wall_s, ratio(single_s * seeds.len() as f64, used * wall_s))
}

/// `(run_s, ns_per_event)` of one untraced scenario run.
fn split(out: &Outcome) -> (f64, f64) {
    (out.body_s, ratio(out.simulate_s * 1e9, out.events as f64))
}

/// Two observed runs of the first 30-day slice of the first part: does the
/// allocation count repeat exactly?
fn alloc_repeats(args: &Args, spans: &mut Spans) -> bool {
    let part = Part {
        days: Some(30),
        ..args.workload.parts[0]
    };
    let scn = workloads::build(&part, args.smoke);
    let mut count = || {
        let mut obs = Observe::new();
        run::run_scenario(&scn, args.seed, None, spans, Some(&mut obs));
        obs.allocs
    };
    count() == count()
}

/// Runs the traced run and returns every layer metric by name.
pub fn run(args: &Args, ops: &mut Ops) -> Result<Vec<(&'static str, f64)>, String> {
    let w = args.workload;
    let mut v = Values(Vec::new());
    let mut off = Spans::off();
    let mut spans = Spans::on();
    let probe = host::SpeedProbe::new(args.smoke);
    let speed_before = probe.sample();

    // --- 1. untraced rep -------------------------------------------------
    let cmp = run::comparison_trace(args, &mut off);
    let base = run::rep(args, cmp.as_ref(), &mut off, None, ops);
    println!(
        "untraced rep: wall_s {:.6} summary-digest {}",
        base.body_s, base.digest
    );

    // --- 2. traced rep ---------------------------------------------------
    let mut obs = Observe::new();
    let traced = run::rep(args, cmp.as_ref(), &mut spans, Some(&mut obs), ops);
    drop(cmp);
    println!(
        "traced rep:   wall_s {:.6} summary-digest {}",
        traced.body_s, traced.digest
    );
    println!("summary-digest {}", base.digest);
    ops.step(
        "traced/sliced/instrumented Summary == untraced",
        traced.digest == base.digest,
    );
    const REP: u32 = 1; // the traced rep is the recorder's first run
    let simulate_s = spans.total_s(REP, "simulate");
    v.set(
        "experiments.registry_load_s",
        spans.total_s(REP, "registry-load"),
    );
    v.set(
        "experiments.world_build_s",
        spans.total_s(REP, "world-build"),
    );
    v.set(
        "experiments.world_start_s",
        spans.total_s(REP, "world-start"),
    );
    v.set("experiments.simulate_s", simulate_s);
    v.set("metrics.summarize_s", spans.total_s(REP, "summarize"));

    let events: u64 = traced.outcomes.iter().map(|o| o.events).sum();
    let pending = traced.outcomes.iter().map(|o| o.queued).max().unwrap_or(0);
    let arena = traced
        .outcomes
        .iter()
        .map(|o| o.arena_high)
        .max()
        .unwrap_or(0);
    v.set("sim.events_executed", events as f64);
    v.set("sim.events_queued_at_horizon", pending as f64);
    v.set("sim.arena_high_water", arena as f64);
    v.set("sim.ns_per_event", ratio(simulate_s * 1e9, events as f64));
    v.set("sim.events_per_s", ratio(events as f64, simulate_s));
    let per_slice: Vec<f64> = obs
        .slices
        .iter()
        .filter(|s| s.events > 0)
        .map(|s| s.ns as f64 / s.events as f64)
        .collect();
    v.set("sim.slices", obs.slices.len() as f64);
    v.set("sim.slice_ns_per_event_p50", median(&per_slice));
    v.set(
        "sim.slice_ns_per_event_max",
        per_slice.iter().copied().fold(0.0, f64::max),
    );
    v.set(
        "sim.allocs_per_event",
        ratio(obs.allocs.0 as f64, events as f64),
    );
    v.set(
        "sim.alloc_bytes_per_event",
        ratio(obs.allocs.1 as f64, events as f64),
    );

    let c = obs.counts.borrow().clone();
    let sends = c.kind(Kind::MessageSend);
    let msgs_sent = sends - c.suppressed;
    let polls_concluded = c.kind(Kind::PollOutcome);
    let verdicts = c.kind(Kind::Admission);
    v.set("core.polls_started", c.kind(Kind::PollStart) as f64);
    v.set("core.polls_concluded", polls_concluded as f64);
    v.set("core.msgs_sent", msgs_sent as f64);
    v.set("core.msgs_suppressed", c.suppressed as f64);
    v.set("core.admission_verdicts", verdicts as f64);
    v.set("core.repairs_applied", c.kind(Kind::Repair) as f64);
    v.set("core.damage_events", c.kind(Kind::Damage) as f64);
    v.set(
        "core.events_per_poll",
        ratio(events as f64, polls_concluded as f64),
    );
    let admit_ratio = ratio(c.admitted() as f64, verdicts as f64);
    v.set("core.admission_admit_ratio", admit_ratio);
    v.set("adversary.timers", c.kind(Kind::AdversaryTimer) as f64);
    v.set("adversary.actions", c.kind(Kind::AdversaryAction) as f64);
    ops.step(
        "counting sink agrees with CoreObs, EngineObs and the summaries",
        obs.core.msgs_sent.get() == msgs_sent
            && obs.core.msgs_suppressed.get() == c.suppressed
            && obs.core.polls_started.get() == c.kind(Kind::PollStart)
            && obs.engine.events_executed.get() == events
            && polls_concluded == traced.polls,
    );

    let profile = obs.profiler.borrow().to_json(w.name);
    let (evaluate_ns, finalize_ns, attributed_ns) = profile_totals(&profile);
    v.set("core.poll_evaluate_s", evaluate_ns * 1e-9);
    v.set("core.poll_finalize_s", finalize_ns * 1e-9);
    v.set(
        "core.simulate_dark_share",
        1.0 - ratio(attributed_ns * 1e-9, simulate_s),
    );
    v.set(
        "obs.traced_overhead_ratio",
        ratio(traced.body_s, base.body_s),
    );

    // --- 3. side probes --------------------------------------------------
    spans.next_run();
    let repeats = spans.scope("probe:alloc-repeat", |s| alloc_repeats(args, s));
    println!("allocation count repeats exactly: {repeats}");

    spans.next_run();
    spans.enter("probe:trace");
    let tp = trace_probe(args, &base, &mut spans, ops);
    spans.exit();
    let tp = tp?;
    v.set("trace.events_recorded", tp.side.events as f64);
    v.set("trace.file_mib", tp.side.bytes as f64 / (1 << 20) as f64);
    v.set("trace.record_run_s", tp.record_run_s);
    v.set("trace.write_s", tp.side.write_s);
    v.set("trace.read_verify_s", tp.side.read_verify_s);
    v.set("trace.decode_s", tp.side.decode_s);
    v.set(
        "trace.decode_events_per_s",
        ratio(tp.side.events as f64, tp.side.decode_s),
    );
    v.set("trace.stats_s", tp.side.stats_s);
    v.set("trace.diff_s", tp.side.diff_s);
    v.set("trace.export_s", tp.side.export_s);
    v.set(
        "trace.record_overhead_ratio",
        ratio(tp.record_run_s, tp.plain_s),
    );
    v.set("trace.replay_verify_s", tp.replay_s);

    spans.next_run();
    let scn = workloads::build(&w.probe_part(), args.smoke);
    let (sweep_wall_s, efficiency) =
        spans.scope("probe:sweep", |s| sweep_probe(args, &scn, s, ops));
    v.set("experiments.sweep_wall_s", sweep_wall_s);
    v.set("experiments.sweep_efficiency", efficiency);

    // The per-attack split: the untraced rep's own parts on attack-mix,
    // one short untraced run of each attack scenario elsewhere.
    spans.next_run();
    spans.enter("probe:adversary");
    let on_attack_mix = w.parts.iter().map(|p| p.scenario).eq(ATTACKS.map(|a| a.0));
    for (i, (attack, run_name, ns_name)) in ATTACKS.into_iter().enumerate() {
        let (run_s, ns) = if on_attack_mix {
            split(&base.outcomes[i])
        } else {
            let part = Part {
                scenario: attack,
                scale: Scale::Default,
                days: Some(ATTACK_PROBE_DAYS),
            };
            let scn = workloads::build(&part, args.smoke);
            let out = spans.scope(&format!("plain-run:{attack}"), |s| {
                run::run_scenario(&scn, args.seed, None, s, None)
            });
            ops.step(&format!("probe run {attack}"), out.events > 0);
            split(&out)
        };
        v.set(run_name, run_s);
        v.set(ns_name, ns);
    }
    spans.exit();

    // Layer kernels at the workload's own measured size.
    spans.next_run();
    let budget = if args.smoke { 0.02 } else { 0.2 };
    let n_peers = traced.outcomes[0].n_peers;
    let msg_share = ratio(msgs_sent as f64, events as f64);
    spans.enter("kernels");
    let queue_ns = spans.scope("kernel:queue-hold", |_| {
        kernels::queue_hold_ns(pending, msg_share, budget)
    });
    let send_ns = spans.scope("kernel:net-send", |_| kernels::net_send_ns(n_peers, budget));
    let filter_ns = spans.scope("kernel:admission-filter", |_| {
        kernels::admission_filter_ns(n_peers, admit_ratio, budget)
    });
    let reputation_ns = spans.scope("kernel:reputation-update", |_| {
        kernels::reputation_update_ns(n_peers, budget)
    });
    let reserve_ns = spans.scope("kernel:schedule-reserve", |_| {
        kernels::schedule_reserve_ns(budget)
    });
    let sha = spans.scope("kernel:sha256", |_| {
        kernels::sha256_mib_per_s(tp.trace.as_bytes(), budget)
    });
    spans.exit();
    v.set("sim.queue_hold_ns", queue_ns);
    v.set(
        "sim.queue_share_est",
        share_est(queue_ns, events, simulate_s),
    );
    v.set("net.send_ns", send_ns);
    v.set(
        "net.delivery_share_est",
        share_est(send_ns, sends, simulate_s),
    );
    v.set("core.admission_filter_ns", filter_ns);
    v.set(
        "core.admission_share_est",
        share_est(filter_ns, verdicts, simulate_s),
    );
    v.set("core.reputation_update_ns", reputation_ns);
    v.set("core.schedule_reserve_ns", reserve_ns);
    v.set("crypto.sha256_mib_per_s", sha);

    // Layer timings are raw seconds; this is the factor the end-to-end
    // run would have divided them by, sampled at both ends of this run.
    v.set("host.speed_factor", (speed_before + probe.sample()) / 2.0);
    v.set("host.nproc", host::nproc() as f64);
    v.set("host.cpu_s", host::cpu_s());
    v.set(
        "host.involuntary_ctx_switches",
        host::involuntary_ctx_switches() as f64,
    );

    ops.step("span self-times telescope", spans.telescopes());
    write_trace_file(args, &v.0, &spans, &obs, repeats, &profile)?;
    Ok(v.0)
}

/// Writes spans, slices, the in-program profile and the layer metrics of
/// this traced run to `out/trace-<workload>.json`.
fn write_trace_file(
    args: &Args,
    values: &[(&'static str, f64)],
    spans: &Spans,
    obs: &Observe,
    alloc_repeats: bool,
    profile: &str,
) -> Result<(), String> {
    let mut doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"nproc\": {},\n  \
         \"alloc_count_repeats\": {alloc_repeats},\n  \"metrics\": {{",
        args.workload.name,
        args.seed,
        host::nproc()
    );
    for (i, (name, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(doc, "{sep}\n    \"{name}\": {value}");
    }
    doc.push_str("\n  },\n  \"slices\": [");
    for (i, s) in obs.slices.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            doc,
            "{sep}\n    {{\"ns\": {}, \"events\": {}}}",
            s.ns, s.events
        );
    }
    let _ = write!(
        doc,
        "\n  ],\n  \"spans\": {},\n  \"profile\": {}\n}}\n",
        spans.to_json(),
        profile.trim_end()
    );
    let path = args
        .out_dir
        .join(format!("trace-{}.json", args.workload.name));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_obs::Profiler;

    #[test]
    fn profile_totals_count_nested_spans_once_in_the_roots() {
        let mut p = Profiler::new();
        p.enter("poll-evaluate");
        p.enter("poll-finalize");
        p.exit(30);
        p.exit(100);
        p.enter("poll-finalize");
        p.exit(7);
        assert_eq!(profile_totals(&p.to_json("t")), (100.0, 37.0, 107.0));
        assert_eq!(profile_totals("not json"), (0.0, 0.0, 0.0));
    }
}
