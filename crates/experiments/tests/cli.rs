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

/// A numeric flag that does not parse used to panic (exit 101 and a
/// backtrace). Each is CLI misuse: exit 2, nothing run, and a diagnostic
/// naming the flag and the offending value.
#[test]
fn numeric_flag_typos_exit_2_naming_the_flag_and_the_value() {
    let cases: [(&[&str], &str, &str); 7] = [
        (&["run", "baseline", "--seed", "banana"], "--seed", "banana"),
        (&["run", "baseline", "--seeds", "x"], "--seeds", "x"),
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

/// A figure that cannot be written is a failure naming the path, not a
/// silent success: here `results` is a regular file, so the directory
/// cannot be created.
#[test]
fn figure_write_failures_exit_1_naming_the_path() {
    let dir = temp_dir("results-is-a-file");
    std::fs::write(dir.join("results"), "in the way").unwrap();
    let out = lockss_sim(&["figure", "churn", "--scale", "quick"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    let stderr = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("results"), "path not named: {stderr}");
    assert!(!Path::new(&dir).join("results/churn.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
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
