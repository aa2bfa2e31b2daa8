//! Acceptance tests for the block-columnar `LTRC2` trace wire.
//!
//! Four properties pin the format swap: (1) seeded-random event streams
//! round-trip byte-exactly through the columnar codec at any block
//! budget; (2) tampering — a corrupted block body, a lying frame
//! length, a flipped byte, a chopped tail — yields *distinct* accurate
//! diagnostics; (3) migrating a legacy `LTRC1` recording with
//! `to_v2`/`trace convert` preserves every statistic and shrinks the
//! file; (4) the parallel analytics (stats, diff, export) render
//! byte-identical output at any thread count, on real scenario traces.

use lockss::core::trace::{AdmissionVerdict, MsgKind, PollConclusion, TraceEvent, TraceSink};
use lockss::crypto::sha256;
use lockss::experiments::runner::{run, RunOptions};
use lockss::experiments::scenario::Scenario;
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::sim::{Duration, SimTime};
use lockss::trace::{
    diff_traces_threaded, export_csv, trace_stats, trace_stats_threaded, AggregateStats, Recorder,
    RecorderV1, Trace, TraceError, TraceMeta, TraceRecord, TraceWire,
};

fn meta() -> TraceMeta {
    TraceMeta {
        scenario: "x".into(),
        scale: "q".into(),
        seed: 1,
        run_length_ms: 1000,
    }
}

/// Deterministic splitmix64 stream for the property sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One pseudo-random event covering every kind and payload codec.
fn random_event(rng: &mut Rng) -> TraceEvent {
    let r = |rng: &mut Rng, m: u64| (rng.next() % m) as u32;
    match rng.next() % 13 {
        0 => TraceEvent::PollStart {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
        },
        1 => TraceEvent::PollOutcome {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
            conclusion: match rng.next() % 4 {
                0 => PollConclusion::Win,
                1 => PollConclusion::Loss,
                2 => PollConclusion::Inconclusive,
                _ => PollConclusion::Inquorate,
            },
            votes: r(rng, 20),
        },
        2 => TraceEvent::MessageSend {
            from: r(rng, 100),
            to: r(rng, 100),
            kind: match rng.next() % 6 {
                0 => MsgKind::Poll,
                1 => MsgKind::PollAck,
                2 => MsgKind::PollProof,
                3 => MsgKind::Vote,
                4 => MsgKind::RepairRequest,
                _ => MsgKind::Repair,
            },
            au: r(rng, 4),
            poll: rng.next() % 1000,
            suppressed: rng.next().is_multiple_of(5),
        },
        3 => TraceEvent::Admission {
            peer: r(rng, 100),
            poller: rng.next() % 100,
            verdict: match rng.next() % 5 {
                0 => AdmissionVerdict::Admitted,
                1 => AdmissionVerdict::AdmittedIntroduced,
                2 => AdmissionVerdict::RandomDrop,
                3 => AdmissionVerdict::Refractory,
                _ => AdmissionVerdict::RateLimited,
            },
        },
        4 => TraceEvent::Damage {
            peer: r(rng, 100),
            au: r(rng, 4),
            block: rng.next() % 50,
            was_intact: rng.next().is_multiple_of(2),
        },
        5 => TraceEvent::Repair {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
            block: rng.next() % 50,
            intact_after: rng.next().is_multiple_of(2),
        },
        6 => TraceEvent::AdversaryTimer {
            channel: rng.next() % 8,
            tag: rng.next() % 1000,
        },
        7 => TraceEvent::AdversaryAction {
            channel: rng.next() % 8,
            label: format!("attack/{}", rng.next() % 5),
            magnitude: rng.next() % 10_000,
        },
        8 => TraceEvent::PeerJoin { peer: r(rng, 100) },
        9 => TraceEvent::PhaseMark {
            label: format!("phase-{}", rng.next() % 3),
        },
        10 => TraceEvent::Compromise {
            peer: r(rng, 100),
            corrupted: rng.next() % 50,
        },
        11 => TraceEvent::Cure {
            peer: r(rng, 100),
            residual: rng.next() % 50,
        },
        _ => TraceEvent::PoisonedRepair {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
            block: rng.next() % 50,
            server: r(rng, 100),
        },
    }
}

/// `n` random records with monotone time/ordinal (the sink contract).
fn random_stream(seed: u64, n: u64) -> Vec<TraceRecord> {
    let mut rng = Rng(seed);
    let mut at = 0u64;
    let mut seq = 0u64;
    (0..n)
        .map(|_| {
            at += rng.next() % 100_000;
            seq += 1 + rng.next() % 3;
            TraceRecord {
                at: SimTime(at),
                seq,
                event: random_event(&mut rng),
            }
        })
        .collect()
}

fn record_v2(records: &[TraceRecord], budget: usize) -> Trace {
    let rec = Recorder::with_block_events(&meta(), budget);
    let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
    for r in records {
        sink.record(r.at, r.seq, &r.event);
    }
    rec.finish()
}

#[test]
fn random_event_streams_roundtrip_across_block_budgets() {
    for seed in [1, 2, 3] {
        let records = random_stream(seed, 2000);
        let mut rendered = Vec::new();
        for budget in [1, 7, 1000, 65_536] {
            let trace = record_v2(&records, budget);
            assert_eq!(trace.wire(), TraceWire::V2);
            assert_eq!(trace.events(), 2000, "budget {budget}");
            // Validation survives a full serialize → parse round-trip.
            let back = Trace::from_bytes(trace.as_bytes().to_vec()).expect("revalidates");
            assert_eq!(
                back.decode_all().expect("decodes"),
                records,
                "seed {seed} budget {budget}"
            );
            rendered.push(format!("{}", trace_stats(&trace).expect("stats")));
        }
        // Stats are a pure function of the record stream, not the blocking.
        assert!(
            rendered.windows(2).all(|w| w[0] == w[1]),
            "stats differ across block budgets (seed {seed})"
        );
        // The legacy writer agrees record-for-record.
        let v1 = {
            let rec = RecorderV1::new(&meta());
            let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
            for r in &records {
                sink.record(r.at, r.seq, &r.event);
            }
            rec.finish()
        };
        assert_eq!(v1.wire(), TraceWire::V1);
        assert_eq!(v1.decode_all().expect("v1 decodes"), records);
    }
}

/// Re-seals the outer SHA-256 after in-place tampering, so validation
/// reaches the layer under test instead of stopping at the file hash.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 32;
    let digest = sha256(&bytes[..body]);
    bytes[body..].copy_from_slice(&digest);
}

#[test]
fn tampered_traces_yield_distinct_diagnostics() {
    // Small single-block trace: all varints under test are one byte.
    let records = random_stream(9, 3);
    let trace = record_v2(&records, 100);
    assert_eq!(trace.blocks().len(), 1);
    let entry = &trace.blocks()[0];
    assert!(entry.offset < 128 && entry.body_len < 120, "{entry:?}");

    // (1) Flipped body byte, outer hash NOT resealed: the file-level
    // integrity check fires first.
    let mut bytes = trace.as_bytes().to_vec();
    let body_start = entry.offset as usize + 2; // marker + 1-byte len varint
    bytes[body_start + 5] ^= 0xA5;
    let e1 = Trace::from_bytes(bytes.clone()).expect_err("seal must catch the flip");
    assert!(matches!(e1, TraceError::HashMismatch), "{e1}");

    // (2) Same flip with the outer hash resealed: structural validation
    // passes (the index is intact) but the per-block digest catches the
    // corruption at decode time, naming the block.
    reseal(&mut bytes);
    let forged = Trace::from_bytes(bytes).expect("structurally valid");
    let e2 = forged.decode_all().expect_err("block digest must catch it");
    assert!(
        matches!(e2, TraceError::BadBlockChecksum { block: 0 }),
        "{e2}"
    );
    assert_eq!(e2.to_string(), "block 0 checksum mismatch: block corrupt");
    // Stats and diff surface the same diagnostic instead of bad numbers.
    assert!(trace_stats(&forged).is_err());

    // (3) A frame that claims more bytes than the record region holds
    // (frame varint and index entry bumped consistently, resealed):
    // the truncated-block diagnostic, distinct from (2).
    let mut bytes = trace.as_bytes().to_vec();
    let frame_len_pos = entry.offset as usize + 1;
    assert_eq!(bytes[frame_len_pos] as u64, entry.body_len);
    bytes[frame_len_pos] += 4;
    let tail = bytes.len() - (8 + 8 + 32);
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[tail..tail + 8]);
    let index_offset = u64::from_le_bytes(raw) as usize;
    // Index layout: END, varint n_blocks (=1), varint offset, varint len.
    let index_len_pos = index_offset + 3;
    assert_eq!(bytes[index_len_pos] as u64, entry.body_len);
    bytes[index_len_pos] += 4;
    reseal(&mut bytes);
    let e3 = Trace::from_bytes(bytes).expect_err("frame overruns the region");
    assert!(
        matches!(e3, TraceError::TruncatedBlock { block: 0 }),
        "{e3}"
    );
    assert_eq!(e3.to_string(), "trace truncated inside block 0");

    // (4) A tail chopped below the minimum trailer size is a fourth
    // distinct diagnostic (a *partial* chop is caught by the seal, (1)).
    let mut bytes = trace.as_bytes().to_vec();
    bytes.truncate(40);
    let e4 = Trace::from_bytes(bytes).expect_err("chopped");
    assert!(matches!(e4, TraceError::Truncated), "{e4}");

    let msgs = [
        e1.to_string(),
        e2.to_string(),
        e3.to_string(),
        e4.to_string(),
    ];
    for i in 0..msgs.len() {
        for j in i + 1..msgs.len() {
            assert_ne!(msgs[i], msgs[j], "diagnostics must be distinct");
        }
    }
}

/// A real (shrunken) scenario run for the migration and analytics tests.
fn scenario_trace(name: &str, seed: u64) -> Trace {
    let entry = ScenarioRegistry::standard();
    let entry = entry.get(name).expect("registered");
    let mut s: Scenario = entry.build(Scale::Quick);
    s.cfg.n_peers = 30;
    s.cfg.n_aus = 2;
    s.run_length = Duration::from_days(150);
    let meta = TraceMeta {
        scenario: name.to_string(),
        scale: "quick".to_string(),
        seed,
        run_length_ms: s.run_length.as_millis(),
    };
    run(&s, seed, &RunOptions::record(&meta))
        .trace
        .expect("a recorded run seals a trace")
}

#[test]
fn converting_v1_preserves_stats_and_shrinks() {
    let v2 = scenario_trace("baseline", 7);
    let records = v2.decode_all().expect("decodes");
    assert!(records.len() > 1000, "need a substantial stream");

    // The same stream through the legacy flat writer.
    let v1 = {
        let rec = RecorderV1::new(&v2.meta().expect("meta"));
        let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
        for r in &records {
            sink.record(r.at, r.seq, &r.event);
        }
        rec.finish()
    };

    // Migration is canonical: converting the v1 recording reproduces the
    // directly-recorded v2 bytes exactly (same content hash, same blocks).
    let converted = v1.to_v2().expect("converts");
    assert_eq!(converted.as_bytes(), v2.as_bytes());

    // Every statistic survives the wire change; only the wire tag moves.
    let mut sv1 = trace_stats(&v1).expect("v1 stats");
    let sv2 = trace_stats(&converted).expect("v2 stats");
    assert_eq!(sv1.wire, TraceWire::V1);
    assert_eq!(sv2.wire, TraceWire::V2);
    sv1.wire = TraceWire::V2;
    assert_eq!(sv1.to_json(), sv2.to_json());

    // The columnar wire carries its seek index *and* still shrinks the
    // file substantially (the ≥4x target is asserted at campaign scale in
    // the bench suite; real quick-scale streams must manage ≥2x).
    let ratio = v1.as_bytes().len() as f64 / v2.as_bytes().len() as f64;
    assert!(
        ratio >= 2.0,
        "LTRC2 must be at least 2x smaller than LTRC1, got {ratio:.2}x \
         ({} -> {} bytes)",
        v1.as_bytes().len(),
        v2.as_bytes().len()
    );
}

#[test]
fn analytics_are_thread_invariant_on_real_traces() {
    let a = scenario_trace("pipe-stoppage", 7);
    let b = scenario_trace("pipe-stoppage", 8);
    let stats1 = format!("{}", trace_stats_threaded(&a, 1).expect("stats"));
    let json1 = trace_stats_threaded(&a, 1).expect("stats").to_json();
    let diff1 = format!("{}", diff_traces_threaded(&a, &b, 1).expect("diff"));
    let csv1 = export_csv(&a, 1, 7).expect("export");
    for threads in [2, 3, 8] {
        assert_eq!(
            stats1,
            format!("{}", trace_stats_threaded(&a, threads).expect("stats")),
            "stats rendering must not depend on --threads"
        );
        assert_eq!(
            json1,
            trace_stats_threaded(&a, threads).expect("stats").to_json()
        );
        assert_eq!(
            diff1,
            format!("{}", diff_traces_threaded(&a, &b, threads).expect("diff")),
            "diff rendering must not depend on --threads"
        );
        assert_eq!(csv1, export_csv(&a, threads, 7).expect("export"));
    }
    // The JSON stats carry the wire tag (regression: it used to be absent).
    assert!(json1.contains("\"wire\": \"LTRC2\""), "{json1}");
    // Self-diff across wires: identical records, different bytes.
    let a1 = {
        let rec = RecorderV1::new(&a.meta().expect("meta"));
        let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
        for r in a.decode_all().expect("decodes") {
            sink.record(r.at, r.seq, &r.event);
        }
        rec.finish()
    };
    let self_diff = diff_traces_threaded(&a, &a1, 4).expect("mixed-wire diff");
    assert!(self_diff.is_identical(), "{self_diff}");
}

#[test]
fn sweep_record_retains_per_seed_traces_that_aggregate() {
    use lockss::experiments::sweep::{run_sweep_plan, SweepOptions, SweepReport};

    let entry = ScenarioRegistry::standard();
    let entry = entry.get("baseline").expect("registered");
    let mut s: Scenario = entry.build(Scale::Quick);
    s.cfg.n_peers = 25;
    s.cfg.n_aus = 1;
    s.run_length = Duration::from_days(60);
    let dir = std::env::temp_dir().join(format!("lockss-trace-v2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let seeds = [1u64, 2, 3];
    let report = run_sweep_plan(
        &s,
        SweepReport::new("baseline", "quick", seeds.to_vec()),
        &SweepOptions {
            threads: 2,
            record: Some(&dir),
            ..SweepOptions::default()
        },
    );
    assert_eq!(report.completed.len(), 3);

    let mut per_trace = Vec::new();
    for seed in seeds {
        let path = dir.join(format!("trace-baseline-s{seed}.bin"));
        let trace = Trace::read_from(&path)
            .unwrap_or_else(|e| panic!("sweep --record must write {}: {e}", path.display()));
        assert_eq!(trace.wire(), TraceWire::V2);
        let m = trace.meta().expect("meta");
        assert_eq!((m.seed, m.scenario.as_str()), (seed, "baseline"));
        assert!(trace.events() > 0, "seed {seed} recorded an empty stream");
        per_trace.push((
            format!("s{seed}"),
            trace_stats_threaded(&trace, 2).expect("stats"),
        ));
    }
    let total: u64 = per_trace.iter().map(|(_, s)| s.events).sum();
    let agg = AggregateStats::new(per_trace);
    assert_eq!(agg.total_events(), total);
    let rendered = format!("{agg}");
    assert!(
        rendered.contains("aggregate stats over 3 trace(s)"),
        "{rendered}"
    );
    assert!(agg.to_json().contains("\"aggregate\": true"));
    let _ = std::fs::remove_dir_all(&dir);
}
