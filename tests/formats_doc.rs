//! Cross-check between the on-disk format constants in source and the
//! normative spec in `docs/FORMATS.md`.
//!
//! Two directions: every format version string or trace magic declared
//! in source must appear verbatim in the spec, and every version token
//! the spec names must be backed by a declaration in source. The same
//! contract runs as greps in the CI docs job; this test is the local,
//! `cargo test`-visible form of it.
//!
//! The spec's label table is held to `Label::ALL`, the labels a trace may
//! carry. The spec's worked trace example is executed as well: the hex
//! dump is parsed out of the document, loaded and held to the recorder's
//! bytes. And every JSON emitter's real output is held to the reader and
//! to the spec's JSON examples by one table.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use lockss::core::trace::{Label, MsgKind, PollConclusion, TraceEvent, TraceSink};
use lockss::experiments::runner::{run, run_once, RunOptions};
use lockss::experiments::sweep::{summary_from_json, summary_to_json, ShardTag, SweepReport};
use lockss::experiments::{ObsSession, Scale, ScenarioRegistry, ScenarioSpec};
use lockss::obs::{Heartbeat, Profiler};
use lockss::sim::json::{self, Value, Writer};
use lockss::sim::{Duration, SimTime};
use lockss::trace::{trace_stats, AggregateStats, Recorder, Trace, TraceMeta, TraceRecord};

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
        declared.len() >= 7,
        "expected at least 7 format constants (6 version tags + 1 magic), found {declared:?}"
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

/// Every `.rs` file under `dir`, integration tests and benches included.
fn all_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().unwrap_or_default() != "target" {
                all_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A document a comment cites by file name (an upper-case stem plus
/// `.md`, possibly behind a path) must exist — a bare name at the repo
/// root or under `docs/`, a path at that path from the root.
#[test]
fn every_document_a_comment_names_exists() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        all_rs(Path::new(dir), &mut files);
    }
    let mut cited = 0;
    let mut missing = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            let Some((_, comment)) = line.split_once("//") else {
                continue;
            };
            let tokens =
                comment.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)));
            for token in tokens.map(|t| t.trim_end_matches('.')) {
                let Some(stem) = token.strip_suffix(".md") else {
                    continue;
                };
                let name = stem.rsplit('/').next().unwrap_or(stem);
                let upper = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
                if !name.starts_with(|c: char| c.is_ascii_uppercase()) || !name.chars().all(upper) {
                    continue;
                }
                cited += 1;
                let found = Path::new(token).is_file()
                    || (!token.contains('/') && Path::new("docs").join(token).is_file());
                if !found {
                    missing.push(format!("{}:{}: {token}", path.display(), n + 1));
                }
            }
        }
    }
    assert!(cited > 0, "no comment names a document; the scan is broken");
    assert!(
        missing.is_empty(),
        "comments cite documents that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_doc_covers_all_six_formats() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    for required in [
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

/// The doc's label table is `Label::ALL`, row by row: the strings a
/// decoder accepts in a label column are exactly the ones it lists.
#[test]
fn the_doc_lists_every_declared_label_in_table_order() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    let listed: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Label |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').next().unwrap().trim())
        .map(|cell| cell.trim_matches('`'))
        .collect();
    assert_eq!(listed, Label::ALL.map(Label::label));
}

/// The doc's attack table lists the kinds the decoder reads, in the order
/// its unknown-kind error lists them, and each row's example decodes as
/// that kind.
#[test]
fn the_doc_lists_every_attack_kind_with_an_example_that_decodes() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Kind |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells = l.trim_matches('|').split('|');
            cells.map(|c| c.trim().trim_matches('`')).collect()
        })
        .collect();
    let baseline = json_examples(&doc, "lockss-scenario-v1").remove(0);
    let with_attack = |attack: &str| baseline.replace("{\"kind\": \"none\"}", attack);
    let err = ScenarioSpec::from_json(&with_attack("{\"kind\": \"?\"}")).unwrap_err();
    let decoded = err
        .message
        .split_once('(')
        .and_then(|(_, list)| list.strip_suffix(')'))
        .expect("the unknown-kind error lists the kinds");
    let kinds: Vec<&str> = decoded.split(", ").collect();
    assert_eq!(rows.iter().map(|r| r[0]).collect::<Vec<_>>(), kinds);
    for row in &rows {
        let (kind, example) = (row[0], row[row.len() - 1]);
        let spec = ScenarioSpec::from_json(&with_attack(example))
            .unwrap_or_else(|e| panic!("{kind}'s example does not decode: {e}"));
        assert!(
            spec.to_json().contains(&format!("\"kind\": \"{kind}\"")),
            "{kind}'s example decodes as another kind"
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
fn the_worked_trace_example_loads_and_is_the_recorders_bytes() {
    let doc = fs::read_to_string("docs/FORMATS.md").expect("docs/FORMATS.md exists");
    let dumps = hex_dumps(&doc);
    let [file] = dumps.as_slice() else {
        panic!("expected the one LTRC2 dump, found {}", dumps.len());
    };
    assert_eq!(file.len(), 198);
    assert_eq!(&file[..6], b"LTRC2\n");

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
    let trace = Trace::from_bytes(file.clone()).expect("the LTRC2 example is a valid trace");
    assert_eq!(trace.meta().expect("header"), meta);
    assert_eq!(trace.events(), 3);
    assert_eq!(trace.decode_all().expect("decodes"), documented);
    // The dump is what the recorder writes for those events, byte for byte.
    let recorder = Recorder::new(&meta);
    let mut sink = recorder.clone();
    for r in &documented {
        sink.record(r.at, r.seq, &r.event);
    }
    assert_eq!(recorder.finish().as_bytes(), file.as_slice());
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
    let (benched, bench_path) = bench.finish();
    let bench_text = fs::read_to_string(&bench_path).expect("Harness::finish wrote its report");
    let _ = fs::remove_file(&bench_path);

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
                let back = Heartbeat::from_json_line(text).expect("reads back");
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
