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

use lockss_obs::Heartbeat;
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
    let records: Vec<Heartbeat> = body
        .lines()
        .map(|l| Heartbeat::from_json_line(l).expect("heartbeat line parses"))
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

/// A jobfile's worker lines carry `--telemetry` through to every shard,
/// each worker appends heartbeats named by its topology, and `sweep
/// status` pairs them with the shard checkpoints the merge line names.
#[test]
fn jobfile_lines_carry_telemetry_that_sweep_status_reads() {
    let dir = scratch("jobfile-tele");
    run_in(
        &dir,
        &[
            "sweep",
            "baseline",
            "--scale",
            "quick",
            "--seeds",
            "1..4",
            "--telemetry",
            "tele",
            "--jobfile",
            "jobs.txt",
            "--shards",
            "2",
        ],
    );
    let jobs = read(&dir.join("jobs.txt"));
    let lines: Vec<&str> = jobs
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(lines.len(), 3, "2 shard lines + 1 merge:\n{jobs}");
    for line in &lines[..2] {
        assert!(line.contains(" --telemetry tele "), "{line}");
        let status = Command::new("sh")
            .args(["-c", line])
            .current_dir(&dir)
            .stdout(Stdio::null())
            .status()
            .expect("run jobfile line");
        assert!(status.success(), "jobfile line failed: {line}");
    }

    // Workers wrote per-shard heartbeat files named by topology.
    for shard in ["s1of2", "s2of2"] {
        let hb = dir.join(format!("tele/heartbeat-baseline-{shard}.jsonl"));
        let body = read(&hb);
        assert!(!body.is_empty(), "empty {}", hb.display());
        assert!(
            body.lines().all(|l| Heartbeat::from_json_line(l).is_ok()),
            "unparseable heartbeat line in {}",
            hb.display()
        );
    }

    let out = run_in(&dir, &["sweep", "status", "results", "--telemetry", "tele"]);
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    for shard in ["1/2", "2/2"] {
        let row = table
            .lines()
            .find(|l| l.trim_start().starts_with(shard))
            .unwrap_or_else(|| panic!("no row for shard {shard}:\n{table}"));
        assert!(
            row.contains(" ago"),
            "shard {shard} has no heartbeat: {row}"
        );
    }
    assert!(table.contains("campaign: 4/4 seeds (100%)"), "{table}");
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
        let session = std::sync::Arc::new(ObsSession::new());
        let meta = lockss_trace::TraceMeta {
            scenario: name.into(),
            scale: "quick".into(),
            seed: 1,
            run_length_ms: scenario.run_length.as_millis(),
        };
        let options = RunOptions {
            obs: Some(session.clone()),
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

/// The additive metrics of a `--metrics-out` snapshot, by name: a counter's
/// value, or a histogram's count, sum and bucket counts. Gauges are left
/// out: they hold the last value any run wrote, so they do not add up.
/// Kinds are read from the Prometheus text beside the JSON.
fn additive_metrics(json_path: &Path) -> std::collections::BTreeMap<String, Vec<u64>> {
    let prom = read(&json_path.with_extension("prom"));
    let kind = |name: &str| {
        let line = format!("# TYPE {name} ");
        prom.lines()
            .find_map(|l| l.strip_prefix(&line))
            .unwrap_or_else(|| panic!("no TYPE line for {name}"))
            .to_string()
    };
    let v = json::parse(&read(json_path)).expect("metrics parse");
    let f = v.as_object("snapshot").unwrap();
    let metrics = json::get(f, "metrics")
        .unwrap()
        .as_object("metrics")
        .unwrap();
    let mut out = std::collections::BTreeMap::new();
    for (name, value) in metrics {
        let values = match kind(name).as_str() {
            "counter" => vec![value.as_u64(name).unwrap()],
            "histogram" => {
                let h = value.as_object(name).unwrap();
                let mut values = vec![
                    json::get(h, "count").unwrap().as_u64("count").unwrap(),
                    json::get(h, "sum").unwrap().as_u64("sum").unwrap(),
                ];
                for bucket in json::get(h, "buckets")
                    .unwrap()
                    .as_array("buckets")
                    .unwrap()
                {
                    let pair = bucket.as_array("bucket").unwrap();
                    values.push(pair[1].as_u64("bucket count").unwrap());
                }
                values
            }
            _ => continue,
        };
        out.insert(name.clone(), values);
    }
    assert!(out.contains_key("polls_started_total"), "{out:?}");
    out
}

/// A multi-seed `run` of a composite attack re-runs its first seed for the
/// per-phase table. That re-run reports to no session, so the snapshot
/// counts each seed once: it is the sum of the single-seed snapshots.
#[test]
fn a_multi_seed_run_counts_each_seed_once() {
    let dir = scratch("seed-sum");
    let snapshot = |seeds: &[&str], out: &str| {
        let mut args = vec!["run", "stoppage-then-flood", "--scale", "quick"];
        args.extend(seeds);
        args.extend(["--metrics-out", out]);
        run_in(&dir, &args);
        additive_metrics(&dir.join(out))
    };
    let both = snapshot(&["--seeds", "2"], "both.json");
    let one = snapshot(&["--seed", "1"], "one.json");
    let two = snapshot(&["--seed", "2"], "two.json");
    for (name, values) in &both {
        let sum: Vec<u64> = one[name]
            .iter()
            .zip(&two[name])
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(
            values, &sum,
            "{name}: --seeds 2 against --seed 1 plus --seed 2"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The root spans of `results/profile-baseline.json` under `dir`, each
/// checked to telescope.
fn root_span_names(dir: &Path) -> Vec<String> {
    let v = json::parse(&read(&dir.join("results/profile-baseline.json"))).expect("profile parses");
    let f = v.as_object("profile").unwrap();
    let spans = json::get(f, "spans").unwrap().as_array("spans").unwrap();
    for s in spans {
        assert_telescopes(s);
    }
    spans
        .iter()
        .map(|s| {
            let name = json::get(s.as_object("span").unwrap(), "name").unwrap();
            name.as_str("name").unwrap().to_string()
        })
        .collect()
}

/// A batch's and a sweep's runs each profile on their own tree and are
/// merged at the root, the shape a single run's profile has.
#[test]
fn batch_and_sweep_profiles_hold_their_runs_at_the_root() {
    for args in [
        &[
            "run",
            "baseline",
            "--scale",
            "quick",
            "--seeds",
            "2",
            "--profile",
        ][..],
        &[
            "sweep",
            "baseline",
            "--scale",
            "quick",
            "--seeds",
            "1..3",
            "--threads",
            "2",
            "--fresh",
            "--profile",
        ],
    ] {
        let dir = scratch(&format!("profile-{}", args[0]));
        run_in(&dir, args);
        let roots = root_span_names(&dir);
        for expected in ["world-build", "simulate"] {
            assert!(
                roots.iter().any(|r| r == expected),
                "{}: no root span {expected}: {roots:?}",
                args.join(" ")
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A sweep's counters and histograms do not depend on how many workers ran
/// its seeds; only `sweep_worker_chunks_total` does, which counts them.
/// Gauges are left out (see [`additive_metrics`]).
#[test]
fn sweep_metrics_are_the_same_at_any_thread_count() {
    let dir = scratch("sweep-threads");
    let snapshot = |threads: &str| {
        let out = format!("m{threads}.json");
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
                threads,
                "--fresh",
                "--metrics-out",
                &out,
            ],
        );
        let mut metrics = additive_metrics(&dir.join(&out));
        let chunks = metrics.remove("sweep_worker_chunks_total").unwrap();
        assert_eq!(chunks, [threads.parse::<u64>().unwrap()], "one per worker");
        // Gauges are left out of `additive_metrics`; these two are maxima
        // over the seeds, so they must not depend on finish order either.
        let snapshot = json::parse(&read(&dir.join(&out))).expect("metrics parse");
        let snapshot = snapshot.as_object("snapshot").unwrap();
        let gauges = json::get(snapshot, "metrics").unwrap();
        let gauges = gauges.as_object("metrics").unwrap();
        for name in ["engine_events_queued", "engine_arena_total"] {
            let value = json::get(gauges, name).unwrap().as_u64(name).unwrap();
            metrics.insert(name.to_string(), vec![value]);
        }
        metrics
    };
    let one = snapshot("1");
    let three = snapshot("3");
    assert_eq!(one["sweep_seeds_completed_total"], [4]);
    assert_eq!(one, three);
    std::fs::remove_dir_all(&dir).unwrap();
}
