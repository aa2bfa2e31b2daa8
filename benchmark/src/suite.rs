//! No `--workload`: the whole suite. Every workload runs in a child
//! process of its own (peak RSS is a process high-water mark), once
//! untraced and once traced, and the results land in one JSON file that
//! `--compare` reads.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use lockss_sim::json;

use crate::host;
use crate::metrics::END_TO_END;
use crate::stats::median;
use crate::workloads::WORKLOADS;

/// One child run, as stored in the result file.
struct Child {
    workload: &'static str,
    trace: bool,
    round: u32,
    exit_ok: bool,
    log: Vec<String>,
    /// The child's last stdout line: the result object.
    result: String,
}

impl Child {
    /// The value of the last log line `<key> <value>`.
    fn tagged(&self, key: &str) -> Option<&str> {
        self.log
            .iter()
            .rev()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
    }
}

fn spawn(
    workload: &'static str,
    trace: bool,
    round: u32,
    flags: &[String],
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(flags)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut log: Vec<String> = stdout.lines().map(String::from).collect();
    let result = log.pop().unwrap_or_default();
    if json::parse(&result).is_err() {
        return Err(format!(
            "{workload} trace {}: no result line",
            u8::from(trace)
        ));
    }
    Ok(Child {
        workload,
        trace,
        round,
        exit_ok: out.status.success(),
        log,
        result,
    })
}

fn quoted(v: Option<&str>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json::escape(s)),
        None => "null".to_string(),
    }
}

fn render(children: &[Child], seed: u64, seconds: f64, smoke: bool) -> String {
    let mut doc = format!(
        "{{\n  \"schema\": \"lockss-benchmark-results-v1\",\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"smoke\": {smoke},\n  \"nproc\": {},\n  \
         \"claim\": null,\n  \"runs\": [",
        host::nproc()
    );
    for (i, c) in children.iter().enumerate() {
        let log: Vec<String> = c.log.iter().map(|l| quoted(Some(l))).collect();
        let _ = write!(
            doc,
            "{}\n    {{\"workload\": \"{}\", \"trace\": {}, \"round\": {}, \"exit_ok\": {}, \
             \"summary_digest\": {}, \"trace_hash\": {},\n     \"log\": [{}],\n     \
             \"result\": {}}}",
            if i == 0 { "" } else { "," },
            c.workload,
            u8::from(c.trace),
            c.round,
            c.exit_ok,
            quoted(c.tagged("summary-digest")),
            quoted(c.tagged("trace-hash")),
            log.join(", "),
            c.result
        );
    }
    doc.push_str("\n  ]\n}\n");
    doc
}

/// Runs every workload `repeat` times, untraced then traced, each in its
/// own child process; writes the result file; `Ok(false)` if any child
/// failed an op.
pub fn run(
    seed: u64,
    seconds: f64,
    repeat: u32,
    smoke: bool,
    out: Option<PathBuf>,
) -> Result<bool, String> {
    let mut flags = vec![
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    if smoke {
        flags.push("--smoke".to_string());
    }
    let mut children = Vec::new();
    for round in 0..repeat {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let child = spawn(w.name, trace, round, &flags)?;
                println!(
                    "{} trace {} round {round}: {}",
                    w.name,
                    u8::from(trace),
                    if child.exit_ok { "ok" } else { "FAILED" }
                );
                for line in &child.log {
                    println!("    {line}");
                }
                children.push(child);
            }
        }
    }

    let path = out.unwrap_or_else(|| crate::out_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = render(&children, seed, seconds, smoke);
    std::fs::write(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;

    // The end-to-end table, medians over rounds, read back from the file
    // just written so the table and the file cannot disagree.
    let runs = crate::compare::parse_results(&doc)?;
    println!("\nnproc {}  seed {seed}  rounds {repeat}", host::nproc());
    print!("{:<18}", "workload");
    for m in &END_TO_END {
        print!(" {:>22}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for w in &WORKLOADS {
        print!("{:<18}", w.name);
        for m in &END_TO_END {
            let vs = crate::compare::values(&runs, w.name, false, m.name);
            print!(" {:>22.6}", median(&vs));
        }
        println!();
    }
    println!("wrote {}", path.display());
    Ok(children.iter().all(|c| c.exit_ok))
}
