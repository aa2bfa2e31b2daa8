//! Command-line misuse is an error, not a silent default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lockss_sim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lockss-sim"));
    cmd.args(args).env_remove("LOCKSS_SCALE");
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

/// `--scale qick` and `LOCKSS_SCALE=garbage` used to run the (minutes-long)
/// default scale. Both must exit 2 naming the accepted scales, before any
/// simulation starts, for a scenario run and for a figure.
#[test]
fn unknown_scale_names_exit_2_with_the_accepted_names() {
    for verb in [&["run", "baseline"], &["figure", "fig2"]] {
        let by_flag = lockss_sim(verb).args(["--scale", "qick"]).output();
        let by_env = lockss_sim(verb).env("LOCKSS_SCALE", "garbage").output();
        for (out, source, typo) in [
            (by_flag, "--scale", "qick"),
            (by_env, "LOCKSS_SCALE", "garbage"),
        ] {
            let out = out.expect("spawn");
            let stderr = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{verb:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{verb:?}: nothing may run");
            for needle in [source, typo, "quick", "default", "paper"] {
                assert!(
                    stderr.contains(needle),
                    "{verb:?}: '{needle}' not in: {stderr}"
                );
            }
        }
    }
}

/// A numeric flag that does not parse, or names more seeds than
/// `MAX_SEEDS`, used to panic (exit 101 and a backtrace) or abort. Each is
/// CLI misuse: exit 2, nothing run, and a diagnostic naming the flag and
/// the offending value.
#[test]
fn numeric_flag_typos_exit_2_naming_the_flag_and_the_value() {
    let cases: [(&[&str], &str, &str); 11] = [
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
    // A trace to export and convert, recorded where `results/` is free.
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
    let cases: [(&[&str], &[&str], &str); 10] = [
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
            &["trace", "convert", trace, "results/c.bin"],
            &[],
            "results/c.bin",
        ),
        (
            &["sweep", "recovery", "--budgets", "2", "--seeds", "1"],
            &["--attack-days", "30", "--out", "results/r.txt"],
            "results/r.txt",
        ),
        (
            &["sweep", "dispatch", "baseline", "--scale", "quick"],
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
/// report run fed the metrics registry.
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
    // The admission tables are on the report, and a baseline run fills them.
    for label in ["last-admission stamps", "introductions outstanding"] {
        let count: u64 = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(label))
            .and_then(|l| l.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {label:?} line in: {stdout}"));
        assert!(count > 0, "{label}: {count}");
    }
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
/// file named, the nesting limit the reason.
#[test]
fn validate_reports_a_pathologically_nested_file_instead_of_overflowing() {
    let dir = temp_dir("deep-nesting");
    for (name, open) in [("arrays.json", "["), ("objects.json", "{\"a\":")] {
        std::fs::write(dir.join(name), open.repeat(50_000)).unwrap();
        let out = lockss_sim(&["validate", name])
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr(&out));
        assert!(
            stdout.contains(name) && stdout.contains("nesting too deep"),
            "{name}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
