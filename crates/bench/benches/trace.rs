//! Trace-layer benchmarks: recording overhead against the untraced run,
//! plus the encode/decode substrate.
//!
//! The `TraceSink` contract is that untraced runs pay one `Option` null
//! check per emission point and traced runs stay within a few percent of
//! untraced wall-clock (target <5%). `run/untraced` and `run/recording`
//! are sampled in the same rounds, so the printed `trace/record overhead`
//! (the ratio of their medians) sees the same clock drift on both sides.

use std::hint::black_box;

use lockss_bench::Harness;
use lockss_core::trace::TraceSink;
use lockss_core::World;
use lockss_crypto::sha256::sha256;
use lockss_experiments::runner::{replay_once, run, run_once, RunOptions};
use lockss_experiments::scenario::{AttackSpec, Scenario};
use lockss_experiments::Scale;
use lockss_sim::{Duration, Engine, SimTime};
use lockss_trace::{trace_stats, trace_stats_threaded, Recorder, TraceMeta, DEFAULT_BLOCK_EVENTS};

fn smoke(attack: AttackSpec) -> Scenario {
    let mut s = Scenario::attacked(Scale::Quick, 2, attack);
    s.cfg.n_peers = 30;
    s.run_length = Duration::from_days(120);
    s
}

fn meta(s: &Scenario) -> TraceMeta {
    TraceMeta {
        scenario: "bench".to_string(),
        scale: "quick".to_string(),
        seed: 1,
        run_length_ms: s.run_length.as_millis(),
    }
}

/// Runs one seed with a recorder streaming into its buffer but without
/// sealing the trace — the pure record-path cost the `<5%` bar is about.
/// (The seal — one SHA-256 over the finished bytes — is a per-trace,
/// post-run cost, benched separately as `trace/seal`.) Ends with the same
/// summarize/phase passes as `run_once` so the pair differs *only* in the
/// recording.
fn run_streaming(scenario: &Scenario, seed: u64, m: &TraceMeta) {
    let recorder = Recorder::new(m);
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = World::new(cfg);
    world.set_trace_sink(Box::new(recorder));
    if let Some(adv) = scenario.attack.build() {
        world.install_adversary(adv);
    }
    let mut eng: Engine<World> = Engine::new();
    world.start(&mut eng);
    let end = SimTime::ZERO + scenario.run_length;
    eng.run_until(&mut world, end);
    black_box(world.metrics.summarize(end));
    black_box(world.metrics.phase_summaries(end));
}

fn main() {
    let mut h = Harness::new("trace");

    // The overhead pair: identical (scenario, seed), with and without a
    // recorder streaming.
    let s = smoke(AttackSpec::None);
    let m = meta(&s);
    {
        let (sa, sb, m) = (s.clone(), s.clone(), m.clone());
        h.bench("run/untraced", move || black_box(run_once(&sa, 1)));
        h.bench("run/recording", move || run_streaming(&sb, 1, &m));
    }
    {
        let s = s.clone();
        let m = m.clone();
        h.bench("run/record-and-seal", move || {
            black_box(run(&s, 1, &RunOptions::record(&m)).trace)
        });
    }

    // Replay verification cost (decodes + compares every event).
    let trace = run(&s, 1, &RunOptions::record(&m))
        .trace
        .expect("a recorded run seals a trace");
    {
        let s = s.clone();
        let trace = trace.clone();
        h.bench("run/replay-verify", move || {
            black_box(replay_once(&s, 1, &trace).expect("replay decodes"))
        });
    }

    // The seal: one SHA-256 over the trace body (amortizes with run
    // length; dominates nothing but the tiniest bench worlds).
    let events = trace.decode_all().expect("decodes").len() as u64;
    {
        let body: Vec<u8> = trace.as_bytes()[..trace.as_bytes().len() - 32].to_vec();
        h.bench_bytes("trace/seal", body.len() as u64, move || {
            black_box(sha256(&body))
        });
    }

    // Decode/stats substrate over the recorded stream.
    {
        let trace = trace.clone();
        h.bench_bytes(
            "trace/decode-all",
            trace.as_bytes().len() as u64,
            move || black_box(trace.decode_all().expect("decodes")),
        );
    }
    {
        let trace = trace.clone();
        h.bench("trace/stats-pass", move || {
            black_box(trace_stats(&trace).expect("stats"))
        });
    }

    // The recorded stream, for the wire-substrate lines below.
    let records = trace.decode_all().expect("decodes");

    // The block-parallel pass, where it has blocks to hand out: the
    // recorded stream laid end to end until it fills eight default
    // blocks, folded at 1 and at 2 threads. The pair is the scaling of
    // every threaded verb (stats, diff and export share the pass); it
    // read 1.0x for as long as each decoded block was a fresh
    // multi-megabyte allocation.
    let long_trace = {
        let last = records.last().expect("a recorded run emits events");
        let (span_ms, span_seq) = (last.at.as_millis() + 1, last.seq + 1);
        let laps = (8 * DEFAULT_BLOCK_EVENTS).div_ceil(records.len()) as u64;
        let mut rec = Recorder::new(&m);
        for lap in 0..laps {
            for r in &records {
                let at = SimTime(r.at.as_millis() + lap * span_ms);
                rec.record(at, r.seq + lap * span_seq, &r.event);
            }
        }
        rec.finish()
    };
    for threads in [1, 2] {
        let long_trace = long_trace.clone();
        h.bench(
            &format!("trace/stats-pass 8 blocks @{threads}"),
            move || black_box(trace_stats_threaded(&long_trace, threads).expect("stats")),
        );
    }

    // The wire substrate: the recorded stream re-encoded (its decode is
    // `trace/decode-all` above).
    {
        let m = m.clone();
        h.bench("trace/encode-v2", move || {
            let mut rec = Recorder::new(&m);
            for r in &records {
                rec.record(r.at, r.seq, &r.event);
            }
            black_box(rec.finish())
        });
    }

    let (results, _) = h.finish();

    let median = |name: &str| {
        let line = results.iter().find(|r| r.name == name);
        line.map_or(f64::NAN, |r| r.median_ns)
    };
    let untraced = median("run/untraced");
    let recording = median("run/recording");
    let sealed = median("run/record-and-seal");
    let overhead_pct = (recording - untraced) / untraced * 100.0;
    println!(
        "\ntrace/record overhead: {overhead_pct:+.2}% while running \
         ({events} events, {} bytes, target < 5%); \
         seal adds {:+.2}% on this {:.0}ms world (one SHA-256, amortizes \
         with run length)",
        trace.as_bytes().len(),
        (sealed - recording) / untraced * 100.0,
        untraced / 1e6,
    );
    println!(
        "trace/stats-pass scaling: {:.2}x at 2 threads over 1 ({} blocks, {} events)",
        median("trace/stats-pass 8 blocks @1") / median("trace/stats-pass 8 blocks @2"),
        long_trace.blocks().len(),
        long_trace.events(),
    );
}
