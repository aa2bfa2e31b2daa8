//! Cross-check between the on-disk format constants in source and the
//! normative spec in `docs/FORMATS.md`.
//!
//! Two directions: every format version string or trace magic declared
//! in source must appear verbatim in the spec, and every version token
//! the spec names must be backed by a declaration in source. The same
//! contract runs as greps in the CI docs job; this test is the local,
//! `cargo test`-visible form of it.
//!
//! The spec's two worked trace examples are executed as well: the hex
//! dumps are parsed out of the document and loaded, so "LTRC1 stays
//! readable forever" is pinned by literal bytes no writer in this tree
//! produced. And every JSON emitter's real output is held to the
//! reader and to the spec's JSON examples by one table.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use lockss::core::trace::{MsgKind, PollConclusion, TraceEvent};
use lockss::experiments::runner::{run, run_once, RunOptions};
use lockss::experiments::sweep::{
    summary_from_json, summary_to_json, HeartbeatRecord, ShardTag, SweepReport,
};
use lockss::experiments::{ObsSession, Scale, ScenarioRegistry, ScenarioSpec};
use lockss::obs::{Heartbeat, Profiler};
use lockss::sim::json::{self, Value, Writer};
use lockss::sim::{Duration, SimTime};
use lockss::trace::{trace_stats, AggregateStats, Trace, TraceMeta, TraceRecord, TraceWire};

/// Extracts every `lockss-…-vN` version tag from `text`.
fn version_tags(text: &str) -> BTreeSet<String> {
    let mut tags = BTreeSet::new();
    let bytes = text.as_bytes();
    for (start, _) in text.match_indices("lockss-") {
        let mut end = start + "lockss-".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'-')
        {
            end += 1;
        }
        let token = &text[start..end];
        // Only `…-v<digits>` tokens are format versions; crate names
        // like `lockss-trace` are not.
        if let Some(pos) = token.rfind("-v") {
            let version = &token[pos + 2..];
            if !version.is_empty() && version.bytes().all(|b| b.is_ascii_digit()) {
                tags.insert(token.to_string());
            }
        }
    }
    tags
}

/// Extracts every `LTRC<digits>` trace magic label from `text`.
fn magic_labels(text: &str) -> BTreeSet<String> {
    let mut labels = BTreeSet::new();
    let bytes = text.as_bytes();
    for (start, _) in text.match_indices("LTRC") {
        let mut end = start + "LTRC".len();
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end > start + "LTRC".len() {
            labels.insert(text[start..end].to_string());
        }
    }
    labels
}

/// The format constants source actually declares: `FORMAT: &str = "…"`
/// version tags and `b"LTRC<N>\n"` magic byte strings.
fn declared_in(text: &str) -> BTreeSet<String> {
    let mut declared = BTreeSet::new();
    for (start, _) in text.match_indices("FORMAT: &str = \"") {
        let rest = &text[start + "FORMAT: &str = \"".len()..];
        if let Some(end) = rest.find('"') {
            declared.insert(rest[..end].to_string());
        }
    }
    for (start, _) in text.match_indices("b\"LTRC") {
        let rest = &text[start + 2..];
        if let Some(end) = rest.find('\\') {
            declared.insert(rest[..end].to_string());
        }
    }
    declared
}

fn visit_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // Skip integration-test and bench trees: only library and
            // binary source declares canonical format constants.
            let name = path.file_name().unwrap_or_default();
            if name != "tests" && name != "benches" && name != "target" {
                visit_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// All format constants declared across `crates/*/src`.
fn declared_formats() -> BTreeSet<String> {
    let mut files = Vec::new();
    visit_rs(Path::new("crates"), &mut files);
    let mut declared = BTreeSet::new();
    for path in files {
        let text = fs::read_to_string(&path).expect("readable source file");
        declared.extend(declared_in(&text));
    }
    declared
}

#[test]
fn every_declared_format_is_specified_in_the_doc() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    let declared = declared_formats();
    assert!(
        declared.len() >= 8,
        "expected at least 8 format constants (7 formats + 2 magics), found {declared:?}"
    );
    for format in &declared {
        assert!(
            doc.contains(format.as_str()),
            "format constant {format:?} is declared in source but missing from docs/FORMATS.md"
        );
    }
}

#[test]
fn every_format_the_doc_names_exists_in_source() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    let declared = declared_formats();
    let mut named = version_tags(&doc);
    named.extend(magic_labels(&doc));
    assert!(
        !named.is_empty(),
        "docs/FORMATS.md names no format versions at all"
    );
    for token in &named {
        assert!(
            declared.contains(token),
            "docs/FORMATS.md names {token:?} but no source constant declares it \
             (stale doc, or a format was renamed without updating the spec)"
        );
    }
}

#[test]
fn the_doc_covers_all_seven_formats() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    for required in [
        "LTRC1",
        "LTRC2",
        "lockss-sweep-v1",
        "lockss-scenario-v1",
        "lockss-trace-stats-v1",
        "lockss-metrics-v1",
        "lockss-profile-v1",
        "lockss-heartbeat-v1",
    ] {
        assert!(
            doc.contains(required),
            "docs/FORMATS.md is missing required format {required:?}"
        );
    }
}

/// The bytes of every `offset  hex…  ascii` dump in `doc`, one `Vec` per
/// fenced block. The hex field is a fixed 47 columns after the 4-digit
/// offset and two spaces.
fn hex_dumps(doc: &str) -> Vec<Vec<u8>> {
    let mut dumps: Vec<Vec<u8>> = Vec::new();
    let mut in_dump = false;
    for line in doc.lines() {
        let is_row = line.len() > 6
            && line.as_bytes()[..4].iter().all(u8::is_ascii_hexdigit)
            && &line[4..6] == "  ";
        if !is_row {
            in_dump = false;
            continue;
        }
        if !in_dump {
            dumps.push(Vec::new());
            in_dump = true;
        }
        let dump = dumps.last_mut().expect("just pushed");
        assert_eq!(
            usize::from_str_radix(&line[..4], 16).expect("hex offset"),
            dump.len(),
            "dump row offset out of step: {line}"
        );
        let hex = &line[6..line.len().min(6 + 47)];
        for pair in hex.split_whitespace() {
            dump.push(u8::from_str_radix(pair, 16).expect("hex byte pair"));
        }
    }
    dumps
}

#[test]
fn the_worked_trace_examples_load_and_the_ltrc1_one_imports_to_the_ltrc2_one() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    let dumps = hex_dumps(&doc);
    let [v2_file, v1_file] = dumps.as_slice() else {
        panic!(
            "expected the LTRC2 and the LTRC1 dump, found {}",
            dumps.len()
        );
    };
    assert_eq!((v2_file.len(), v1_file.len()), (198, 89));
    assert_eq!(
        (&v2_file[..6], &v1_file[..6]),
        (&b"LTRC2\n"[..], &b"LTRC1\n"[..])
    );

    let documented = vec![
        TraceRecord {
            at: SimTime(1000),
            seq: 10,
            event: TraceEvent::PollStart {
                peer: 3,
                au: 1,
                poll: 7,
            },
        },
        TraceRecord {
            at: SimTime(1250),
            seq: 11,
            event: TraceEvent::MessageSend {
                from: 3,
                to: 12,
                kind: MsgKind::Poll,
                au: 1,
                poll: 7,
                suppressed: false,
            },
        },
        TraceRecord {
            at: SimTime(2000),
            seq: 12,
            event: TraceEvent::PollOutcome {
                peer: 3,
                au: 1,
                poll: 7,
                conclusion: PollConclusion::Win,
                votes: 10,
            },
        },
    ];
    let meta = TraceMeta {
        scenario: "demo".into(),
        scale: "quick".into(),
        seed: 9,
        run_length_ms: 86_400_000,
    };
    let v2 = Trace::from_bytes(v2_file.clone()).expect("the LTRC2 example is a valid trace");
    let v1 = Trace::from_bytes(v1_file.clone()).expect("the LTRC1 example is a valid trace");
    assert_eq!((v2.wire(), v1.wire()), (TraceWire::V2, TraceWire::V1));
    for trace in [&v2, &v1] {
        assert_eq!(trace.meta().expect("header"), meta);
        assert_eq!(trace.events(), 3);
        assert_eq!(trace.decode_all().expect("decodes"), documented);
    }
    assert_eq!(v2.as_bytes(), v2_file.as_slice());
    assert_eq!(
        v1.as_bytes(),
        v2_file.as_slice(),
        "importing the LTRC1 example must yield the LTRC2 example, byte for byte"
    );
}

/// The ```json examples of the FORMATS.md section headed `## <format> —`.
fn json_examples(doc: &str, format: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\n## {format} "))
        .unwrap_or_else(|| panic!("docs/FORMATS.md has no section for {format}"));
    let section = &doc[start + 1..];
    let section = &section[..section[3..].find("\n## ").map_or(section.len(), |e| e + 3)];
    let blocks = section.split("```json\n").skip(1);
    blocks
        .map(|b| b[..b.find("```").expect("closed block")].to_string())
        .collect()
}

/// Every key path in `v` (`meta.seed`, `phases[].label`), leaving out
/// placeholder `"..."` keys and what is under them.
fn key_paths(v: &Value, at: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Obj(fields) => {
            for (key, v) in fields.iter().filter(|(key, _)| key != "...") {
                let path = if at.is_empty() {
                    key.clone()
                } else {
                    format!("{at}.{key}")
                };
                key_paths(v, &path, out);
                out.insert(path);
            }
        }
        Value::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{at}[]"), out);
            }
        }
        _ => {}
    }
}

/// One emitter: its name, its real output, the `(format, index)` of its
/// example in docs/FORMATS.md, and a reader that asserts it sees what was
/// written and re-emits it (`None` when it sees only some of the fields).
type Row<'a> = (
    &'a str,
    String,
    Option<(&'a str, usize)>,
    Box<dyn Fn(&str) -> Option<String> + 'a>,
);

/// Every JSON emitter, on real output: the document parses; where the
/// workspace has a reader, it reads back to the value written and
/// re-emits the same bytes; and every key of the format's example in
/// docs/FORMATS.md sits at the same path in the real document.
#[test]
fn every_json_emitter_parses_rereads_and_covers_its_documented_example() {
    let registry = ScenarioRegistry::standard();
    let mut scenario = registry
        .build("stoppage-then-flood", Scale::Quick)
        .expect("registered");
    scenario.cfg.n_peers = 30;
    scenario.cfg.n_aus = 2;
    scenario.run_length = Duration::from_days(150);
    let meta = TraceMeta {
        scenario: "stoppage-then-flood".into(),
        scale: "quick".into(),
        seed: 7,
        run_length_ms: scenario.run_length.as_millis(),
    };
    let recorded = run(&scenario, 7, &RunOptions::record(&meta));
    let summary = recorded.summary.clone();
    let stats = trace_stats(&recorded.trace.expect("a recorded run seals a trace")).expect("stats");
    assert!(stats.phases.len() >= 2, "the composite marks its phases");

    let spec_text = fs::read_to_string("scenarios/stoppage-then-flood.json").expect("corpus file");
    let spec = ScenarioSpec::from_json(&spec_text).expect("corpus spec");
    let tag = ShardTag::new(2, 3, (5..=9).collect()).expect("valid topology");
    let mut report = SweepReport::new_shard(&meta.scenario, &meta.scale, tag.clone());
    report.record(7, summary.clone());
    report.record(8, run_once(&scenario, 8));
    assert!(report.is_complete());
    let mut profiler = Profiler::new();
    profiler.enter("simulate");
    profiler.enter("poll-evaluate");
    profiler.exit(5);
    profiler.exit(60);
    let heartbeat = Heartbeat {
        unix_ms: 1_754_500_000_000,
        scenario: "base\"line".into(),
        scale: "quick".into(),
        shard: 2,
        shards: 4,
        seeds_done: 3,
        seeds_total: 10,
        last_seed: 7,
        polls: 42_000,
        events: 990_000,
        polls_per_sec: 6.25,
        vm_rss_kb: 204_800,
        arena_live: 5,
        arena_total: 64,
    };
    let mut bench = lockss_bench::Harness::new("formats-doc");
    bench.bench("noop", || std::hint::black_box(3u64));
    let benched = bench.finish();
    let bench_path = "results/BENCH_formats-doc.json";
    let bench_text = fs::read_to_string(bench_path).expect("Harness::finish wrote its report");
    let _ = fs::remove_file(bench_path);

    let mut shard_writer = Writer::new();
    tag.write_json(&mut shard_writer);
    let aggregate = AggregateStats::new(vec![("trace-s7.bin".into(), stats.clone())]);
    let parse = |text: &str| json::parse(text).expect("parses");
    let rows: Vec<Row> = vec![
        (
            "scenario spec",
            spec.to_json(),
            Some(("lockss-scenario-v1", 0)),
            Box::new(|text| {
                let back = ScenarioSpec::from_json(text).expect("reads back");
                assert_eq!(back, spec);
                Some(back.to_json())
            }),
        ),
        (
            "sweep report",
            report.to_json(),
            Some(("lockss-sweep-v1", 0)),
            Box::new(|text| {
                let back = SweepReport::from_json(text).expect("reads back");
                assert_eq!(back, report);
                Some(back.to_json())
            }),
        ),
        (
            "shard tag",
            shard_writer.finish(),
            Some(("lockss-sweep-v1", 1)),
            Box::new(|text| {
                let back = ShardTag::from_json(&parse(text)).expect("reads back");
                assert_eq!(back, tag);
                let mut w = Writer::new();
                back.write_json(&mut w);
                Some(w.finish())
            }),
        ),
        (
            "summary",
            summary_to_json(&summary),
            None,
            Box::new(|text| {
                let back = summary_from_json(&parse(text)).expect("reads back");
                assert_eq!(back, summary);
                Some(summary_to_json(&back))
            }),
        ),
        (
            "trace stats",
            stats.to_json(),
            Some(("lockss-trace-stats-v1", 0)),
            Box::new(|_| None),
        ),
        (
            "aggregate trace stats",
            aggregate.to_json(),
            Some(("lockss-trace-stats-v1", 1)),
            Box::new(|_| None),
        ),
        (
            "metrics snapshot",
            ObsSession::new().registry.to_json(),
            Some(("lockss-metrics-v1", 0)),
            Box::new(|_| None),
        ),
        (
            "profile",
            profiler.to_json("run"),
            Some(("lockss-profile-v1", 0)),
            Box::new(|_| None),
        ),
        (
            "heartbeat",
            heartbeat.to_json_line(),
            Some(("lockss-heartbeat-v1", 0)),
            Box::new(|text| {
                let back = HeartbeatRecord::from_line(text).expect("reads back");
                let hb = &heartbeat;
                let written = (hb.unix_ms, hb.seeds_done, hb.seeds_total, hb.polls);
                assert_eq!(
                    (back.unix_ms, back.seeds_done, back.seeds_total, back.polls),
                    written
                );
                assert_eq!((back.polls_per_sec, back.vm_rss_kb), (6.25, 204_800));
                None
            }),
        ),
        (
            "bench report",
            bench_text,
            None,
            Box::new(|text| {
                let back = lockss_bench::diff::parse_report(text).expect("reads back");
                assert_eq!(back.len(), benched.len());
                for (b, r) in back.iter().zip(&benched) {
                    assert_eq!(b.name, r.name);
                    for (read, measured) in [
                        (b.median_ns, r.median_ns),
                        (b.q1_ns, r.q1_ns),
                        (b.q3_ns, r.q3_ns),
                    ] {
                        assert!((read - measured).abs() < 0.051, "{read} vs {measured}");
                    }
                }
                None
            }),
        ),
    ];

    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    for (what, text, example, reread) in rows {
        let real = json::parse(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
        if let Some(again) = reread(&text) {
            assert_eq!(again, text, "{what}: re-emitted bytes differ");
        }
        let Some((format, index)) = example else {
            continue;
        };
        let example = json_examples(&doc, format)
            .into_iter()
            .nth(index)
            .unwrap_or_else(|| panic!("{what}: {format} has no example {index}"));
        let example = json::parse(&example)
            .unwrap_or_else(|e| panic!("{what}: the documented example is not JSON: {e}"));
        let (mut documented, mut written) = (BTreeSet::new(), BTreeSet::new());
        key_paths(&example, "", &mut documented);
        key_paths(&real, "", &mut written);
        let missing: Vec<_> = documented.difference(&written).collect();
        assert!(
            missing.is_empty(),
            "{what}: docs/FORMATS.md shows {missing:?}, which the writer does not write"
        );
    }
}
