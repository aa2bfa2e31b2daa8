//! Fault-injection harness for the distributed sweep fabric.
//!
//! Drives the real `lockss-sim` binary as shard worker subprocesses and
//! proves the fabric's core promise: kill any worker at any point —
//! including mid-checkpoint-write — resume it, merge the shards, and the
//! campaign report is byte-identical to an uninterrupted single-process
//! run. Also exercises every `sweep merge` negative path end-to-end,
//! asserting exit code 1 and a distinct actionable diagnostic per
//! failure mode.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use lockss_sim::rng::SimRng;

const BIN: &str = env!("CARGO_BIN_EXE_lockss-sim");
const SCENARIO: &str = "baseline";

/// Fresh scratch directory, unique per test, cleaned at entry.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockss-fabric-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn lockss-sim")
}

fn run_ok(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let out = run(args, envs);
    assert!(
        out.status.success(),
        "`{}` failed:\n{}{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn path_str(p: &Path) -> String {
    p.to_str().expect("utf-8 path").to_string()
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

/// Single-process reference report for `seeds`, written to `out`.
fn single_process(seeds: &str, threads: &str, out: &Path) {
    run_ok(
        &[
            "sweep",
            SCENARIO,
            "--scale",
            "quick",
            "--seeds",
            seeds,
            "--threads",
            threads,
            "--checkpoint",
            &path_str(out),
            "--fresh",
        ],
        &[],
    );
}

fn shard_args(seeds: &str, shard: &str, checkpoint: &Path) -> Vec<String> {
    [
        "sweep",
        SCENARIO,
        "--scale",
        "quick",
        "--seeds",
        seeds,
        "--shard",
        shard,
        "--checkpoint",
        &path_str(checkpoint),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Satellite: sequential shard workers + merge reproduce the
/// single-process bytes exactly.
#[test]
fn three_shards_merge_to_the_single_process_bytes() {
    let dir = scratch("three-shards");
    let single = dir.join("single.json");
    single_process("1..9", "3", &single);

    let mut shard_files = Vec::new();
    for i in 1..=3 {
        let ck = dir.join(format!("shard-{i}.json"));
        let args = shard_args("1..9", &format!("{i}/3"), &ck);
        run_ok(&args.iter().map(String::as_str).collect::<Vec<_>>(), &[]);
        shard_files.push(path_str(&ck));
    }

    let merged = dir.join("merged.json");
    let mut args = vec!["sweep".into(), "merge".into()];
    args.extend(shard_files);
    args.extend(["--out".into(), path_str(&merged)]);
    run_ok(&args.iter().map(String::as_str).collect::<Vec<_>>(), &[]);

    assert_eq!(read(&single), read(&merged), "merge must be byte-identical");
}

/// Satellite: kill workers at randomized points, resume each, merge —
/// still byte-identical. The kill lands wherever the scheduler puts it:
/// before the first checkpoint, between writes, or after completion.
#[test]
fn randomly_killed_workers_resume_to_identical_bytes() {
    let dir = scratch("random-kill");
    let single = dir.join("single.json");
    single_process("1..30", "2", &single);

    let mut rng = SimRng::seed_from_u64(0xfab_c1de);
    for trial in 0..4u32 {
        let victim = 1 + rng.below(2) as u64; // shard 1 or 2
        let delay_ms = rng.below(120) as u64;
        let mut shard_files = Vec::new();
        for i in 1..=2u64 {
            let ck = dir.join(format!("t{trial}-shard-{i}.json"));
            let _ = std::fs::remove_file(&ck);
            let args = shard_args("1..30", &format!("{i}/2"), &ck);
            if i == victim {
                let mut child = Command::new(BIN)
                    .args(&args)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn victim");
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                let _ = child.kill();
                let _ = child.wait();
            }
            // Run (or resume) to completion.
            run_ok(&args.iter().map(String::as_str).collect::<Vec<_>>(), &[]);
            shard_files.push(path_str(&ck));
        }
        let merged = dir.join(format!("t{trial}-merged.json"));
        let mut args = vec!["sweep".into(), "merge".into()];
        args.extend(shard_files);
        args.extend(["--out".into(), path_str(&merged)]);
        run_ok(&args.iter().map(String::as_str).collect::<Vec<_>>(), &[]);
        assert_eq!(
            read(&single),
            read(&merged),
            "trial {trial}: kill of shard {victim} after {delay_ms}ms must not change bytes"
        );
    }
}

/// Satellite: a worker aborted *mid-checkpoint-write* (torn tmp file on
/// disk) resumes cleanly from the last durable checkpoint.
#[test]
fn crash_mid_checkpoint_write_resumes_cleanly() {
    let dir = scratch("mid-write-crash");
    let single = dir.join("single.json");
    single_process("1..6", "1", &single);

    let ck = dir.join("shard-1.json");
    let args = shard_args("1..6", "1/2", &ck);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();

    // First attempt aborts while writing the checkpoint for its 2nd seed,
    // leaving a half-written `.json.tmp` behind.
    let out = run(&argv, &[("LOCKSS_SWEEP_CRASH_AFTER", "2")]);
    assert!(
        !out.status.success(),
        "the injected abort must kill the worker"
    );
    let torn = ck.with_extension("json.tmp");
    assert!(torn.exists(), "the crash hook leaves a torn tmp file");
    // The durable checkpoint (if any) must still parse: fsync-then-rename
    // means a reader never observes a half-written target.
    if ck.exists() {
        lockss_experiments::SweepReport::from_json(&read(&ck))
            .expect("the durable checkpoint survives a torn tmp write");
    }

    // Resume past the torn write, then finish the other shard and merge.
    run_ok(&argv, &[]);
    let ck2 = dir.join("shard-2.json");
    let args2 = shard_args("1..6", "2/2", &ck2);
    run_ok(&args2.iter().map(String::as_str).collect::<Vec<_>>(), &[]);
    let merged = dir.join("merged.json");
    run_ok(
        &[
            "sweep",
            "merge",
            &path_str(&ck),
            &path_str(&ck2),
            "--out",
            &path_str(&merged),
        ],
        &[],
    );
    assert_eq!(read(&single), read(&merged));
}

/// The jobfile's command lines are the real fabric wire protocol: run
/// them verbatim through a shell (any order) and the final merge line
/// reproduces the single-process bytes.
#[test]
fn jobfile_lines_executed_verbatim_reproduce_the_campaign() {
    let dir = scratch("jobfile");
    let single = dir.join("single.json");
    single_process("1..6", "2", &single);

    let jobs = dir.join("jobs.txt");
    run_ok(
        &[
            "sweep",
            SCENARIO,
            "--scale",
            "quick",
            "--seeds",
            "1..6",
            "--jobfile",
            &path_str(&jobs),
            "--shards",
            "2",
        ],
        &[],
    );

    let text = read(&jobs);
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(lines.len(), 3, "2 shard commands + 1 merge:\n{text}");
    // Shard lines in reverse order on purpose: order must not matter.
    for line in lines[..2].iter().rev().chain(&lines[2..]) {
        let status = Command::new("sh")
            .arg("-c")
            .arg(line)
            .current_dir(&dir)
            .stdout(Stdio::null())
            .status()
            .expect("run jobfile line");
        assert!(status.success(), "jobfile line failed: {line}");
    }
    let merged = dir.join(format!("results/sweep-{SCENARIO}.json"));
    assert_eq!(read(&single), read(&merged));
}

/// A jobfile written by a binary whose directory name holds a space and a
/// quote, with a flag value that does too, still hands `sh -c` lines that
/// run: the first shard line completes and writes its checkpoint.
#[test]
fn jobfile_lines_survive_a_path_with_a_space_and_a_quote() {
    let dir = scratch("jobfile-quoting");
    let odd = dir.join("q q'x");
    std::fs::create_dir_all(&odd).unwrap();
    let bin = odd.join("lockss-sim");
    std::fs::copy(BIN, &bin).expect("copy the binary");
    let out = Command::new(&bin)
        .args(["sweep", SCENARIO, "--scale", "quick", "--seeds", "1..2"])
        .args([
            "--telemetry",
            "t e'l",
            "--jobfile",
            "jobs.txt",
            "--shards",
            "2",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn the copied binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = read(&dir.join("jobs.txt"));
    let first = text.lines().find(|l| !l.starts_with('#')).unwrap();
    assert!(
        first.starts_with('\''),
        "the binary path is quoted: {first}"
    );
    let out = Command::new("sh")
        .arg("-c")
        .arg(first)
        .current_dir(&dir)
        .output()
        .expect("run the first jobfile line");
    assert!(
        out.status.success(),
        "{first}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let checkpoint = dir.join(format!("results/sweep-{SCENARIO}-shard-1of2.json"));
    assert!(checkpoint.is_file(), "no checkpoint after {first}");
    assert!(dir.join("t e'l").is_dir(), "telemetry went elsewhere");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Asserts a `sweep merge` invocation fails with exit code 1 and a
/// diagnostic containing `needle`.
fn assert_merge_fails(files: &[&Path], needle: &str) {
    let mut args = vec!["sweep".to_string(), "merge".to_string()];
    args.extend(files.iter().map(|p| path_str(p)));
    let out = run(&args.iter().map(String::as_str).collect::<Vec<_>>(), &[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "merge of {files:?} must exit 1 (a data error, not CLI misuse)"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sweep merge:") && stderr.contains(needle),
        "diagnostic for {files:?} must mention '{needle}', got:\n{stderr}"
    );
}

/// Satellite: every merge negative path is a distinct, actionable
/// diagnostic — overlapping ranges, mismatched tags, truncated JSON,
/// foreign format versions, duplicates, missing shards, and
/// single-process inputs are all rejected with exit 1.
#[test]
fn merge_negative_paths_each_get_a_distinct_diagnostic() {
    let dir = scratch("merge-negative");

    // Build one honest 2-shard campaign to mutate.
    let s1 = dir.join("shard-1.json");
    let s2 = dir.join("shard-2.json");
    for (i, ck) in [(1u64, &s1), (2, &s2)] {
        let args = shard_args("1..4", &format!("{i}/2"), ck);
        run_ok(&args.iter().map(String::as_str).collect::<Vec<_>>(), &[]);
    }
    let write = |name: &str, content: &str| -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, content).expect("write fixture");
        p
    };

    // Overlap: relabel shard 1's file as index 2 — both files now claim
    // seeds {1, 2}, and seed 1 would be averaged twice.
    let relabeled = write(
        "overlap.json",
        &read(&s1).replace("\"index\": 1", "\"index\": 2"),
    );
    assert_merge_fails(&[&s1, &relabeled], "shard seed ranges overlap");

    // Mismatched scenario tag.
    let foreign_scenario = write(
        "foreign-scenario.json",
        &read(&s2).replace(&format!("\"{SCENARIO}\""), "\"scale-10k-baseline\""),
    );
    assert_merge_fails(
        &[&s1, &foreign_scenario],
        "scenario 'scale-10k-baseline' does not match",
    );

    // Mismatched scale tag.
    let foreign_scale = write(
        "foreign-scale.json",
        &read(&s2).replace("\"quick\"", "\"paper\""),
    );
    assert_merge_fails(&[&s1, &foreign_scale], "scale 'paper' does not match");

    // Truncated file (torn write that lost its tail).
    let full = read(&s2);
    let truncated = write("truncated.json", &full[..full.len() / 2]);
    assert_merge_fails(&[&s1, &truncated], "truncated or torn write?");

    // Checkpoint from a different grammar version.
    let foreign_format = write(
        "foreign-format.json",
        &read(&s2).replace("lockss-sweep-v1", "lockss-sweep-v0"),
    );
    assert_merge_fails(&[&s1, &foreign_format], "different grammar version");

    // Same shard submitted twice.
    assert_merge_fails(&[&s1, &s1], "submitted twice");

    // Missing shard.
    assert_merge_fails(&[&s1], "missing shard(s) 2 of 2");

    // A single-process report is not a shard checkpoint.
    let single = dir.join("single.json");
    single_process("1..4", "1", &single);
    assert_merge_fails(&[&single, &s1], "single-process report");

    // An incomplete shard names its pending seeds and the resume command.
    // (Crash after the 2nd of 2 seeds: seed 1 is durably checkpointed,
    // seed 2's write is torn, so the file exists but is incomplete.)
    let killed = dir.join("killed.json");
    let args = shard_args("1..4", "1/2", &killed);
    let out = run(
        &args.iter().map(String::as_str).collect::<Vec<_>>(),
        &[("LOCKSS_SWEEP_CRASH_AFTER", "2")],
    );
    assert!(!out.status.success());
    assert_merge_fails(&[&killed, &s2], "is incomplete");
}
