//! End-to-end tests of the observability layer's central promise: every
//! sealed artifact — scenario summaries, recorded traces, sweep
//! checkpoints — is byte-identical with telemetry on and off.
//!
//! Drives the real `lockss-sim` binary the way a user would: once plain,
//! once with `--profile --metrics-out --telemetry`, and compares the
//! bytes. Also validates the out-of-band artifacts themselves: the span
//! tree telescopes (children never exceed their parent), heartbeat JSONL
//! parses and advances monotonically, and the registry snapshot carries
//! every layer's metrics in both JSON and Prometheus text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use lockss_experiments::sweep::HeartbeatRecord;
use lockss_sim::json;

const BIN: &str = env!("CARGO_BIN_EXE_lockss-sim");

/// Fresh scratch directory, unique per test, cleaned at entry.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockss-obs-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the binary with `dir` as its working directory (relative
/// artifact paths like `results/` land inside the scratch area).
fn run_in(dir: &Path, args: &[&str]) -> Output {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn lockss-sim");
    assert!(
        out.status.success(),
        "`{}` failed:\n{}{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

fn read_bytes(p: &Path) -> Vec<u8> {
    std::fs::read(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

/// Asserts one profile span node telescopes: `self <= total` and the
/// children's totals sum to no more than the parent's.
fn assert_telescopes(span: &json::Value) {
    let f = span.as_object("span").unwrap();
    let total = json::get(f, "total_ns")
        .unwrap()
        .as_u64("total_ns")
        .unwrap();
    let self_ns = json::get(f, "self_ns").unwrap().as_u64("self_ns").unwrap();
    assert!(self_ns <= total, "self {self_ns} > total {total}");
    let children = json::get(f, "children")
        .unwrap()
        .as_array("children")
        .unwrap();
    let sum: u64 = children
        .iter()
        .map(|c| {
            let cf = c.as_object("child").unwrap();
            json::get(cf, "total_ns")
                .unwrap()
                .as_u64("total_ns")
                .unwrap()
        })
        .sum();
    assert!(sum <= total, "children sum {sum} > parent total {total}");
    for c in children {
        assert_telescopes(c);
    }
}

#[test]
fn run_artifacts_are_byte_identical_with_observability_on() {
    let dir = scratch("run-ident");
    let plain = dir.join("plain");
    let observed = dir.join("observed");
    std::fs::create_dir_all(&plain).unwrap();
    std::fs::create_dir_all(&observed).unwrap();

    let base = [
        "run",
        "admission-flood",
        "--scale",
        "quick",
        "--seed",
        "2",
        "--record",
        "t.bin",
    ];
    run_in(&plain, &base);
    let mut obs_args = base.to_vec();
    obs_args.extend(["--profile", "--metrics-out", "metrics.json"]);
    run_in(&observed, &obs_args);

    // The sealed artifacts: recorded trace and scenario summary.
    assert_eq!(
        read_bytes(&plain.join("t.bin")),
        read_bytes(&observed.join("t.bin")),
        "recorded trace must not change under observation"
    );
    assert_eq!(
        read(&plain.join("results/scenario-admission-flood.json")),
        read(&observed.join("results/scenario-admission-flood.json")),
        "scenario summary must not change under observation"
    );

    // The out-of-band artifacts exist only where requested.
    let profile = observed.join("results/profile-admission-flood.json");
    assert!(profile.exists());
    assert!(!plain.join("results/profile-admission-flood.json").exists());

    // The span tree is well-formed and telescopes.
    let v = json::parse(&read(&profile)).expect("profile parses");
    let f = v.as_object("profile").unwrap();
    assert_eq!(
        json::get(f, "format").unwrap().as_str("format").unwrap(),
        "lockss-profile-v1"
    );
    let spans = json::get(f, "spans").unwrap().as_array("spans").unwrap();
    assert!(!spans.is_empty(), "profiled run produced no spans");
    let names: Vec<&str> = spans
        .iter()
        .map(|s| {
            json::get(s.as_object("span").unwrap(), "name")
                .unwrap()
                .as_str("name")
                .unwrap()
        })
        .collect();
    for expected in ["world-build", "simulate", "trace-seal"] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }
    for s in spans {
        assert_telescopes(s);
    }

    // The registry snapshot carries protocol counters in both formats.
    let metrics = read(&observed.join("metrics.json"));
    assert!(metrics.contains("\"polls_started_total\""), "{metrics}");
    let prom = read(&observed.join("metrics.prom"));
    assert!(
        prom.contains("# TYPE polls_started_total counter"),
        "{prom}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_checkpoints_are_byte_identical_with_telemetry_on() {
    let dir = scratch("sweep-ident");
    let plain_cp = dir.join("plain.json");
    // Named sweep-*.json so `sweep status` discovers it below (the plain
    // checkpoint's name keeps it out of the scan).
    let obs_cp = dir.join("sweep-baseline.json");
    let tele = dir.join("tele");

    run_in(
        &dir,
        &[
            "sweep",
            "baseline",
            "--scale",
            "quick",
            "--seeds",
            "1..4",
            "--threads",
            "2",
            "--checkpoint",
            plain_cp.to_str().unwrap(),
            "--fresh",
        ],
    );
    // Different thread count AND full observability: the checkpoint
    // bytes must still match.
    run_in(
        &dir,
        &[
            "sweep",
            "baseline",
            "--scale",
            "quick",
            "--seeds",
            "1..4",
            "--threads",
            "1",
            "--checkpoint",
            obs_cp.to_str().unwrap(),
            "--fresh",
            "--telemetry",
            tele.to_str().unwrap(),
            "--profile",
            "--metrics-out",
            dir.join("m.json").to_str().unwrap(),
        ],
    );
    assert_eq!(
        read(&plain_cp),
        read(&obs_cp),
        "sweep checkpoint must not change under observation"
    );

    // Heartbeats: every line parses, progress is monotone, and the
    // final record shows the finished sweep.
    let hb_path = tele.join("heartbeat-baseline.jsonl");
    let body = read(&hb_path);
    let records: Vec<HeartbeatRecord> = body
        .lines()
        .map(|l| HeartbeatRecord::from_line(l).expect("heartbeat line parses"))
        .collect();
    assert!(!records.is_empty());
    for pair in records.windows(2) {
        assert!(pair[1].unix_ms >= pair[0].unix_ms);
        assert!(pair[1].seeds_done >= pair[0].seeds_done);
        assert!(pair[1].polls >= pair[0].polls);
    }
    let last = records.last().unwrap();
    assert_eq!(last.seeds_done, 4);
    assert_eq!(last.seeds_total, 4);
    assert!(last.polls > 0);

    // `sweep status` reads the same directory back.
    let out = run_in(
        &dir,
        &[
            "sweep",
            "status",
            dir.to_str().unwrap(),
            "--telemetry",
            tele.to_str().unwrap(),
        ],
    );
    let rendered = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(rendered.contains("4/4"), "{rendered}");
    assert!(rendered.contains("campaign:"), "{rendered}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_stats_json_round_trips_through_the_cli() {
    let dir = scratch("stats-json");
    run_in(
        &dir,
        &[
            "run", "baseline", "--scale", "quick", "--seed", "1", "--record", "t.bin",
        ],
    );
    let out = run_in(&dir, &["trace", "stats", "t.bin", "--json"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let v = json::parse(&text).expect("stats JSON parses");
    let f = v.as_object("stats").unwrap();
    assert_eq!(
        json::get(f, "format").unwrap().as_str("format").unwrap(),
        "lockss-trace-stats-v1"
    );
    assert!(json::get(f, "events").unwrap().as_u64("events").unwrap() > 0);
    let polls = json::get(f, "polls").unwrap().as_object("polls").unwrap();
    assert!(
        json::get(polls, "started")
            .unwrap()
            .as_u64("started")
            .unwrap()
            > 0
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dispatch_passes_telemetry_through_and_logs_are_tagged() {
    let dir = scratch("dispatch-tele");
    let tele = dir.join("tele");
    let out = run_in(
        &dir,
        &[
            "sweep",
            "dispatch",
            "baseline",
            "--scale",
            "quick",
            "--seeds",
            "1..4",
            "--shards",
            "2",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            dir.join("sweep-baseline.json").to_str().unwrap(),
            "--telemetry",
            tele.to_str().unwrap(),
            "--stall-secs",
            "120",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("campaign complete"), "{stdout}");

    // Workers wrote per-shard heartbeat files named by topology.
    for shard in ["s1of2", "s2of2"] {
        let hb = tele.join(format!("heartbeat-baseline-{shard}.jsonl"));
        assert!(hb.exists(), "missing {}", hb.display());
        let body = read(&hb);
        assert!(
            body.lines().all(|l| HeartbeatRecord::from_line(l).is_ok()),
            "unparseable heartbeat line in {}",
            hb.display()
        );
    }

    // Shard logs are timestamp- and topology-tagged line by line.
    let log = read(&dir.join("sweep-baseline-shard-1of2.log"));
    assert!(!log.is_empty());
    for line in log.lines() {
        assert!(
            line.starts_with('[') && line.contains(" s1/2 a1] "),
            "untagged log line: {line}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The one emission point: with a recorder and the protocol metric
/// handles both installed, every handle but `repairs_requested` (a fact no
/// event carries) counts exactly the events of its kind in the decoded
/// trace, and the votes histogram holds one observation per poll outcome
/// summing their `votes`. The counters are a view of the event stream, not
/// a second statement of its facts.
#[test]
fn core_counters_count_the_recorded_events() {
    use lockss_core::TraceEventKind as K;
    use lockss_core::{AdmissionVerdict as V, PollConclusion as C, TraceEvent as E};
    use lockss_experiments::{runner, ObsSession, RunOptions, Scale, ScenarioRegistry};

    let registry = ScenarioRegistry::standard();
    for name in ["mobile-recovery-race", "admission-flood"] {
        let scenario = registry.get(name).expect("registered").build(Scale::Quick);
        let session = ObsSession::new();
        let meta = lockss_trace::TraceMeta {
            scenario: name.into(),
            scale: "quick".into(),
            seed: 1,
            run_length_ms: scenario.run_length.as_millis(),
        };
        let options = RunOptions {
            instruments: session.instruments(None),
            ..RunOptions::record(&meta)
        };
        let trace = runner::run(&scenario, 1, &options).trace.expect("recorded");
        let records = trace.decode_all().expect("decodes");

        let mut kinds = [0u64; K::COUNT];
        let (mut conclusions, mut verdicts) = ([0u64; C::ALL.len()], [0u64; V::ALL.len()]);
        let (mut suppressed, mut votes) = (0, 0);
        for r in &records {
            kinds[r.event.kind().code() as usize - 1] += 1;
            match r.event {
                E::PollOutcome {
                    conclusion,
                    votes: v,
                    ..
                } => {
                    conclusions[conclusion.code() as usize] += 1;
                    votes += u64::from(v);
                }
                E::MessageSend { suppressed: s, .. } => suppressed += u64::from(s),
                E::Admission { verdict, .. } => verdicts[verdict.code() as usize] += 1,
                _ => {}
            }
        }
        let kind = |k: K| kinds[k.code() as usize - 1];
        let c = &session.core;
        let pairs = [
            ("polls_started", c.polls_started.get(), kind(K::PollStart)),
            (
                "polls_win",
                c.polls_win.get(),
                conclusions[C::Win.code() as usize],
            ),
            (
                "polls_loss",
                c.polls_loss.get(),
                conclusions[C::Loss.code() as usize],
            ),
            (
                "polls_inconclusive",
                c.polls_inconclusive.get(),
                conclusions[C::Inconclusive.code() as usize],
            ),
            (
                "polls_inquorate",
                c.polls_inquorate.get(),
                conclusions[C::Inquorate.code() as usize],
            ),
            (
                "poll_votes count",
                c.poll_votes.count(),
                kind(K::PollOutcome),
            ),
            ("poll_votes sum", c.poll_votes.sum(), votes),
            (
                "msgs_sent",
                c.msgs_sent.get(),
                kind(K::MessageSend) - suppressed,
            ),
            ("msgs_suppressed", c.msgs_suppressed.get(), suppressed),
            (
                "admission_admitted",
                c.admission_admitted.get(),
                verdicts[V::Admitted.code() as usize],
            ),
            (
                "admission_introduced",
                c.admission_introduced.get(),
                verdicts[V::AdmittedIntroduced.code() as usize],
            ),
            (
                "admission_random_drop",
                c.admission_random_drop.get(),
                verdicts[V::RandomDrop.code() as usize],
            ),
            (
                "admission_refractory",
                c.admission_refractory.get(),
                verdicts[V::Refractory.code() as usize],
            ),
            (
                "admission_rate_limited",
                c.admission_rate_limited.get(),
                verdicts[V::RateLimited.code() as usize],
            ),
            ("repairs_applied", c.repairs_applied.get(), kind(K::Repair)),
            ("damage_events", c.damage_events.get(), kind(K::Damage)),
            ("peer_joins", c.peer_joins.get(), kind(K::PeerJoin)),
            (
                "adversary_actions",
                c.adversary_actions.get(),
                kind(K::AdversaryAction),
            ),
            ("compromises", c.compromises.get(), kind(K::Compromise)),
            ("cures", c.cures.get(), kind(K::Cure)),
            (
                "poisoned_repairs",
                c.poisoned_repairs.get(),
                kind(K::PoisonedRepair),
            ),
        ];
        for (handle, counted, recorded) in pairs {
            assert_eq!(counted, recorded, "{name}: {handle}");
        }
        // Both runs exercise what they are named for.
        assert!(c.polls_started.get() > 0, "{name}");
        let exercised = match name {
            "admission-flood" => c.admission_refractory.get() + c.admission_random_drop.get(),
            _ => c.compromises.get().min(c.cures.get()),
        };
        assert!(exercised > 0, "{name}: the attack left no events");
    }
}
