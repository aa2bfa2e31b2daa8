//! Command-line misuse is an error, not a silent default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Instant;

fn lockss_sim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lockss-sim"));
    cmd.args(args);
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockss-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `--scale qick` used to run the (minutes-long) default scale. It must
/// exit 2 naming the accepted scales, before any simulation starts, for a
/// scenario run and for a figure.
#[test]
fn unknown_scale_names_exit_2_with_the_accepted_names() {
    for verb in [&["run", "baseline"], &["figure", "fig2"]] {
        let out = lockss_sim(verb)
            .args(["--scale", "qick"])
            .output()
            .expect("spawn");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{verb:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{verb:?}: nothing may run");
        for needle in ["--scale", "qick", "quick", "default", "paper"] {
            assert!(
                stderr.contains(needle),
                "{verb:?}: '{needle}' not in: {stderr}"
            );
        }
    }
}

/// The scale comes from the command line alone: a `LOCKSS_SCALE` left in a
/// shell profile must not change the world a bare command simulates, so the
/// bytes stay a function of the binary and the seed, not of the host.
#[test]
fn the_environment_does_not_pick_the_scale() {
    let describe = |env: Option<&str>| {
        let mut cmd = lockss_sim(&["describe", "baseline"]);
        match env {
            Some(scale) => cmd.env("LOCKSS_SCALE", scale),
            None => cmd.env_remove("LOCKSS_SCALE"),
        };
        let out = cmd.output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        out.stdout
    };
    let bare = describe(None);
    assert!(String::from_utf8_lossy(&bare).contains("scale 'default'"));
    assert_eq!(describe(Some("quick")), bare);
}

/// A numeric flag that does not parse, or names more seeds than
/// `MAX_SEEDS`, used to panic (exit 101 and a backtrace) or abort. Each is
/// CLI misuse: exit 2, nothing run, and a diagnostic naming the flag and
/// the offending value.
#[test]
fn numeric_flag_typos_exit_2_naming_the_flag_and_the_value() {
    let cases: [(&[&str], &str, &str); 16] = [
        (&["run", "baseline", "--seed", "banana"], "--seed", "banana"),
        (&["run", "baseline", "--seeds", "x"], "--seeds", "x"),
        // Seed lists are materialised: a huge count or range used to abort
        // allocating it (exit 134) or overflow its capacity (exit 101).
        (
            &["sweep", "baseline", "--seeds", "1000000000000"],
            "--seeds",
            "1000000000000",
        ),
        (
            &["fuzz", "--seeds", "5..2000000000000"],
            "--seeds",
            "5..2000000000000",
        ),
        (
            &["sweep", "baseline", "--seeds", "18446744073709551615"],
            "--seeds",
            "18446744073709551615",
        ),
        (
            &["run", "baseline", "--seeds", "1000000000000"],
            "--seeds",
            "1000000000000",
        ),
        (
            &["sweep", "baseline", "--threads", "banana"],
            "--threads",
            "banana",
        ),
        (&["replay", "t.bin", "--seed", "x"], "--seed", "x"),
        (&["sweep", "recovery", "--threads", "x"], "--threads", "x"),
        (
            &["trace", "stats", "t.bin", "--threads", "x"],
            "--threads",
            "x",
        ),
        (
            &["trace", "diff", "a.bin", "b.bin", "--threads", "-1"],
            "--threads",
            "-1",
        ),
        // A day count whose milliseconds overflow simulated time used to
        // wrap (or panic under overflow checks); `--bucket-days 0` was
        // silently widened to one day.
        (
            &["sweep", "recovery", "--attack-days", "213503982335"],
            "--attack-days",
            "213503982335",
        ),
        (
            &["sweep", "recovery", "--heal-window", "18446744073709551615"],
            "--heal-window",
            "18446744073709551615",
        ),
        (
            &["sweep", "recovery", "--period", "213503982335"],
            "--period",
            "213503982335",
        ),
        (
            &["trace", "export", "t.bin", "--bucket-days", "0"],
            "--bucket-days",
            "0",
        ),
        (
            &["trace", "export", "t.bin", "--bucket-days", "213503982335"],
            "--bucket-days",
            "213503982335",
        ),
    ];
    for (args, flag, value) in cases {
        let out = lockss_sim(args).output().expect("spawn");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(
            stderr.contains(&format!("{flag} wants")) && stderr.contains(&format!("'{value}'")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Each recovery-study point watches its world for `--attack-days` plus
/// `--heal-window` days. Past `MAX_RUN_DAYS` in total the study used to
/// simulate until killed; the handler refuses it before anything runs —
/// exit 2, naming both flags and the limit. A child still running after
/// the deadline is killed and fails the test rather than hanging it.
#[test]
fn recovery_studies_past_the_last_stamp_are_refused_at_once() {
    let recovery = ["sweep", "recovery", "--budgets", "2", "--seeds", "1..1"];
    for flags in [
        &["--attack-days", "53375995583", "--heal-window", "1"][..],
        &["--attack-days", "60000000000"],
    ] {
        let mut child = lockss_sim(&recovery)
            .args(flags)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while child.try_wait().expect("wait").is_none() {
            if Instant::now() > deadline {
                child.kill().expect("kill");
                panic!("{flags:?}: still simulating after 30 s");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: nothing may run");
        for needle in ["--attack-days", "--heal-window", "at most 53375995583 days"] {
            assert!(
                stderr.contains(needle),
                "{flags:?}: '{needle}' not in: {stderr}"
            );
        }
    }
}

/// A thread or shard count of 0 would run nothing; `--threads 0` used to
/// be taken as one thread. The parser refuses it as it refuses a typo, for
/// every verb that takes one, while the counts that may be zero stay
/// legal. Parsing only: nothing is spawned.
#[test]
fn zero_thread_and_shard_counts_are_refused_by_the_parser() {
    let parse = |line: &str| {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        lockss_experiments::cli::parse(&argv)
    };
    let refused = [
        ("sweep baseline --threads 0", "--threads"),
        ("sweep recovery --threads 0", "--threads"),
        ("trace stats t.bin --threads 0", "--threads"),
        ("trace diff a.bin b.bin --threads 0", "--threads"),
        ("trace export t.bin --threads 0", "--threads"),
        ("sweep baseline --jobfile j --shards 0", "--shards"),
    ];
    for (line, flag) in refused {
        let problem = parse(line)
            .err()
            .and_then(|misuse| misuse.problem)
            .unwrap_or_else(|| panic!("{line:?} parsed"));
        let want = format!("{flag} wants a positive integer, got '0'");
        assert!(problem.ends_with(&want), "{line:?}: {problem}");
    }
    for line in [
        "sweep baseline --threads 1",
        "sweep baseline --jobfile j --shards 1",
    ] {
        assert!(parse(line).is_ok(), "{line:?} refused");
    }
}

/// The jobfile's flags combine one way: `--shards` sizes a `--jobfile`,
/// and a jobfile picks each line's shard and checkpoint itself. The parser
/// has no cross-flag rule, so the `sweep` handler refuses the rest — exit
/// 2 naming the flag, with nothing run and nothing written. `sweep
/// dispatch`, the subprocess supervisor the jobfile replaced, is a usage
/// error too.
#[test]
fn jobfile_flag_combinations_are_refused_naming_the_flag() {
    let dir = temp_dir("jobfile-refusals");
    let sweep = ["sweep", "baseline", "--scale", "quick", "--seeds", "1..4"];
    for (flags, named) in [
        (&["--shards", "2"][..], "--shards"),
        (&["--jobfile", "j.txt", "--shard", "1/2"], "--shard"),
        (
            &["--jobfile", "j.txt", "--checkpoint", "c.json"],
            "--checkpoint",
        ),
        (&["--jobfile", "j.txt", "--profile"], "--profile"),
        (
            &["--jobfile", "j.txt", "--metrics-out", "m.json"],
            "--metrics-out",
        ),
    ] {
        let out = lockss_sim(&sweep)
            .args(flags)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{flags:?}: {named} not named: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?}: nothing may run");
    }
    let dispatch = lockss_sim(&["sweep", "dispatch", "baseline", "--shards", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert_eq!(dispatch.status.code(), Some(2), "{}", stderr(&dispatch));
    assert!(dispatch.stdout.is_empty(), "sweep dispatch ran something");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "refused commands wrote {written:?}");

    // The accepted form writes the jobfile and runs nothing else.
    let out = lockss_sim(&sweep)
        .args(["--jobfile", "j.txt", "--shards", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let jobs = std::fs::read_to_string(dir.join("j.txt")).unwrap();
    assert_eq!(jobs.lines().filter(|l| l.contains(" --shard ")).count(), 2);
    assert!(!dir.join("results").exists(), "a jobfile run simulated");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `figure` with no id, an unknown id, or a flag it does not have (the
/// memo's `--fresh` is gone) exits 2 listing every id and what it shows.
#[test]
fn figure_rejects_missing_and_unknown_ids_listing_the_table() {
    for args in [
        &["figure"][..],
        &["figure", "fig9"],
        &["figure", "fig2", "--fresh"],
    ] {
        let out = lockss_sim(args)
            .args(["--scale", "quick"])
            .output()
            .expect("spawn");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        for figure in &lockss_experiments::figures::FIGURES {
            assert!(
                stderr.contains(figure.id) && stderr.contains(figure.title()),
                "{args:?}: '{}' not listed in: {stderr}",
                figure.id
            );
        }
    }
}

/// An output that cannot be written is an I/O failure naming the path —
/// exit 1 — not a silent success (the scenario report, the sweep
/// checkpoint) or misuse (exit 2, as every other row once was): here
/// `results` is a regular file, so nothing can be written under it.
#[test]
fn output_write_failures_exit_1_naming_the_path() {
    // A trace to export, recorded where `results/` is free.
    let src = temp_dir("write-failure-trace");
    let recorded = lockss_sim(&["run", "baseline", "--scale", "quick", "--seed", "1"])
        .args(["--record", "t.bin"])
        .current_dir(&src)
        .output()
        .expect("spawn");
    assert_eq!(recorded.status.code(), Some(0), "{}", stderr(&recorded));
    let trace = src.join("t.bin");
    let trace = trace.to_str().unwrap();

    let dir = temp_dir("results-is-a-file");
    std::fs::write(dir.join("results"), "in the way").unwrap();
    let quick_run = ["run", "baseline", "--scale", "quick", "--seed", "1"];
    let quick_sweep = ["sweep", "baseline", "--scale", "quick", "--seeds", "1"];
    let cases: [(&[&str], &[&str], &str); 9] = [
        (&quick_run, &[], "results/scenario-baseline.json"),
        (&quick_run, &["--record", "results/t.bin"], "results/t.bin"),
        (&quick_sweep, &[], "results/sweep-baseline.json"),
        (
            &quick_sweep,
            &["--checkpoint", "c.json", "--profile"],
            "results/profile-baseline.json",
        ),
        (
            &quick_sweep,
            &["--checkpoint", "c.json", "--metrics-out", "results/m.json"],
            "results/m.json",
        ),
        (
            &["trace", "export", trace],
            &["--csv", "results/t.csv"],
            "results/t.csv",
        ),
        (
            &["sweep", "recovery", "--budgets", "2", "--seeds", "1"],
            &["--attack-days", "30", "--out", "results/r.txt"],
            "results/r.txt",
        ),
        (
            &["sweep", "baseline", "--scale", "quick"],
            &["--shards", "1", "--jobfile", "results/jobs.txt"],
            "results/jobs.txt",
        ),
        (
            &["figure", "churn", "--scale", "quick"],
            &[],
            "results/churn.txt",
        ),
    ];
    for (verb, flags, path) in cases {
        let out = lockss_sim(verb)
            .args(flags)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{verb:?} {flags:?}: {stderr}");
        assert!(
            stderr.contains(path),
            "{verb:?} {flags:?}: {path} not named: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{verb:?} {flags:?}: {stderr}");
    }
    assert!(!Path::new(&dir).join("results/churn.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&src).unwrap();
}

/// `run --mem-report` reports from the run it already made rather than
/// simulating again: the report's event count is the one the instrumented
/// report run fed the metrics registry. Its table bytes add up to no more
/// than peak RSS.
#[test]
fn mem_report_comes_from_the_report_run() {
    let dir = temp_dir("mem-report");
    let out = lockss_sim(&[
        "run",
        "baseline",
        "--scale",
        "quick",
        "--seed",
        "1",
        "--mem-report",
        "--metrics-out",
        "m.json",
    ])
    .current_dir(&dir)
    .output()
    .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let executed: u64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("events"))
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no events line in: {stdout}"));
    let metrics = std::fs::read_to_string(dir.join("m.json")).unwrap();
    assert!(
        metrics.contains(&format!("\"engine_events_executed_total\": {executed}")),
        "report says {executed} event(s); registry: {metrics}"
    );
    // The queue line: pending events at the horizon, and the high-water
    // mark the engine's gauge holds.
    let queue: Vec<u64> = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("event queue"))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect()
        })
        .unwrap_or_else(|| panic!("no event queue line in: {stdout}"));
    let [pending, high] = queue[..] else {
        panic!("event queue line: {queue:?}")
    };
    assert!(
        stdout.contains(&format!("{pending} queued at horizon")),
        "{stdout}"
    );
    assert!(high >= pending && high > 0, "{pending} pending / {high}");
    assert!(
        metrics.contains(&format!("\"engine_arena_total\": {high}")),
        "report says {high} high-water event(s); registry: {metrics}"
    );
    // The admission tables are on the report, and a baseline run fills them.
    for label in ["last-admission stamps", "introductions outstanding"] {
        let count: u64 = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(label))
            .and_then(|l| l.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {label:?} line in: {stdout}"));
        assert!(count > 0, "{label}: {count}");
    }
    // Each table's approximate bytes, and a sum that fits in peak RSS.
    let kib = |line: &str| -> f64 {
        let (before, _) = line.split_once(" KiB").expect("a KiB figure");
        before.split_whitespace().last().unwrap().parse().unwrap()
    };
    let lines: Vec<&str> = stdout.lines().map(str::trim).collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("bytes, approximate"))
        .unwrap_or_else(|| panic!("no byte lines in: {stdout}"));
    let row = |label: &str| {
        let line = lines[at..]
            .iter()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("no {label:?} byte line in: {stdout}"));
        kib(line)
    };
    let listed: f64 = [
        "per-AU cells",
        "reputation entries",
        "admission stamps+intros",
        "reference lists",
        "live polls",
        "voter-session tables",
        "schedules + ledgers",
        "RNG column",
        "other peer columns",
        "event queue",
    ]
    .into_iter()
    .map(row)
    .sum();
    // The hash tables' control bytes are inside their rows, not beside them.
    let control = row("of which control bytes");
    let hashed = row("reputation entries") + row("voter-session tables");
    assert!(
        control > 0.0 && control < hashed,
        "{control} of {hashed} KiB"
    );
    let sum_line = lines[at..].iter().find(|l| l.starts_with("sum")).unwrap();
    let sum = kib(sum_line);
    assert!(
        (sum - listed).abs() < 1.0,
        "{sum_line} vs listed {listed} KiB"
    );
    let peak_mib: f64 = lines
        .iter()
        .find_map(|l| l.strip_prefix("peak RSS")?.trim().strip_suffix(" MiB"))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no peak RSS in: {stdout}"));
    assert!(sum > 0.0 && sum <= peak_mib * 1024.0, "{sum_line}");
    // The printed share is of the unrounded peak, so it may differ by a
    // point from one taken of the rounded MiB figure.
    let share: f64 = sum_line
        .strip_suffix("% attributed)")
        .and_then(|l| l.rsplit_once('(')?.1.parse().ok())
        .unwrap_or_else(|| panic!("no attributed share in: {sum_line}"));
    let expected = 100.0 * sum / (peak_mib * 1024.0);
    assert!(
        (share - expected).abs() <= 1.0,
        "{sum_line}: about {expected}%"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each of these used to run a different experiment than the one asked
/// for, or nothing, and exit 0 — a typo'd flag was ignored, a flag with
/// no value was skipped, a second value overwrote the first. Each is now
/// misuse: exit 2, nothing run, the offending token named, and the help
/// of the verb (or verb family) that was meant, with all of its flags.
#[test]
fn misuse_exits_2_naming_the_token_and_listing_the_verbs_flags() {
    let cases: [(&[&str], &str, &str); 9] = [
        (
            &["describe", "baseline", "--sclae", "quick"],
            "--sclae",
            "describe",
        ),
        (
            &["run", "baseline", "--scale", "quick", "--sed", "3", "--jsn"],
            "--sed",
            "run",
        ),
        (
            &["sweep", "recovery", "--budget", "2"],
            "--budget",
            "sweep recovery",
        ),
        (
            &["run", "baseline", "--seed", "1", "--record"],
            "--record",
            "run",
        ),
        (
            &["trace", "stats", "t.bin", "--shards", "3"],
            "--shards",
            "trace stats",
        ),
        (
            &["sweep", "baseline", "--checkpoint", "--fresh"],
            "--fresh",
            "sweep",
        ),
        (
            &["run", "baseline", "--seed", "1", "--seed", "2"],
            "--seed",
            "run",
        ),
        (&["trace", "dif", "a", "b"], "dif", "trace"),
        (&["sweep"], "sweep", "sweep"),
    ];
    for (args, token, verb) in cases {
        let out = lockss_sim(args).output().expect("spawn");
        let stderr = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        let problem = stderr.lines().next().unwrap_or_default();
        assert!(problem.contains(token), "{args:?}: {problem}");
        let meant = lockss_experiments::cli::VERBS
            .iter()
            .filter(|v| v.path == verb || (verb == "trace" && v.path.starts_with("trace ")));
        for flag in meant.flat_map(|v| v.flags) {
            assert!(
                stderr.contains(flag.name),
                "{args:?}: {} not listed in: {stderr}",
                flag.name
            );
        }
    }
}

/// A scenario's strings reach `results/scenario-<name>.json` escaped: a
/// quote in `paper_ref` used to be written raw, leaving a file no JSON
/// reader accepts.
#[test]
fn run_file_escapes_the_scenario_strings_in_its_json_report() {
    let dir = temp_dir("quoted-paper-ref");
    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaign.json"
    ))
    .unwrap()
    .replace(
        r#""paper_ref": "user-defined""#,
        r#""paper_ref": "see \"Fig. 3\"""#,
    );
    std::fs::write(dir.join("quoted.json"), spec).unwrap();
    let out = lockss_sim(&[
        "run",
        "--file",
        "quoted.json",
        "--scale",
        "quick",
        "--seed",
        "1",
    ])
    .current_dir(&dir)
    .output()
    .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report =
        std::fs::read_to_string(dir.join("results/scenario-example-campaign.json")).unwrap();
    let report = lockss_sim::json::parse(&report).expect("the report is JSON");
    let fields = report.as_object("report").unwrap();
    let paper_ref = lockss_sim::json::get(fields, "paper_ref").unwrap();
    assert_eq!(paper_ref.as_str("paper_ref").unwrap(), r#"see "Fig. 3""#);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file nested 50,000 brackets deep used to overflow the reader's stack
/// and abort the process. It is a bad file like any other: exit 1, the
/// file named, the nesting limit the reason. So is a `run_days` whose
/// milliseconds overflow simulated time, which used to validate `ok` and
/// then run a fraction of a day, and one a day past the last instant a
/// known-peers entry can stamp.
#[test]
fn validate_reports_a_pathologically_nested_file_instead_of_overflowing() {
    let dir = temp_dir("deep-nesting");
    let campaign = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaign.json"
    ))
    .unwrap();
    let endless = campaign.replace("\"run_days\": 360", "\"run_days\": 213503982335");
    assert_ne!(endless, campaign, "examples/campaign.json sets run_days");
    let past_stamps = campaign.replace("\"run_days\": 360", "\"run_days\": 53375995584");
    let limit = "at most 53375995583 days";
    for (name, text, reason) in [
        ("arrays.json", "[".repeat(50_000), "nesting too deep"),
        ("objects.json", "{\"a\":".repeat(50_000), "nesting too deep"),
        ("endless.json", endless, limit),
        ("past-stamps.json", past_stamps, limit),
    ] {
        std::fs::write(dir.join(name), text).unwrap();
        let out = lockss_sim(&["validate", name])
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr(&out));
        assert!(
            stdout.contains(name) && stdout.contains(reason),
            "{name}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `validate` names the field of an out-of-range value, however deep in a
/// composite it sits.
#[test]
fn validate_names_the_field_of_an_out_of_range_member() {
    let dir = temp_dir("member-coverage");
    let campaign = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaign.json"
    ))
    .unwrap();
    let bad = campaign.replacen("\"coverage\": 0.5,", "\"coverage\": 1.5,", 1);
    assert_ne!(
        bad, campaign,
        "examples/campaign.json's first member sets a coverage"
    );
    std::fs::write(dir.join("bad.json"), bad).unwrap();
    let out = lockss_sim(&["validate", "bad.json"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout.contains("bad.json: field 'attack.members[0].attack.coverage': must be in [0,1]"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A world past the peer bound or the cell budget is refused by the
/// decoder, naming its field: `validate` says which, and `run --file`
/// exits 2 before it allocates the world.
#[test]
fn an_oversized_world_is_refused_naming_its_field() {
    let dir = temp_dir("oversized-world");
    let campaign = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaign.json"
    ))
    .unwrap();
    let cases = [
        ("\"peers\": 60,", "\"peers\": 1000000000000,", "world.peers"),
        ("\"aus\": 2,", "\"aus\": 100000000000,", "world.aus"),
    ];
    for (from, to, field) in cases {
        let bad = campaign.replacen(from, to, 1);
        assert_ne!(bad, campaign, "examples/campaign.json sets {from}");
        std::fs::write(dir.join("bad.json"), bad).unwrap();
        let out = lockss_sim(&["validate", "bad.json"])
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert!(
            stdout.contains(&format!("bad.json: field '{field}': ")),
            "{stdout}"
        );
        let out = lockss_sim(&[
            "run", "--file", "bad.json", "--scale", "quick", "--seed", "1",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("'{field}'")),
            "{}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
