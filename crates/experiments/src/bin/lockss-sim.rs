//! Registry-driven scenario runner.
//!
//! Every runnable world — baselines, the paper's figure points, the
//! dynamic-environment attacks, and composite campaigns — is a named entry
//! in the [`ScenarioRegistry`]; this binary lists, describes, and runs
//! them:
//!
//! ```sh
//! cargo run --release --bin lockss-sim -- list
//! cargo run --release --bin lockss-sim -- describe stoppage-then-flood
//! cargo run --release --bin lockss-sim -- run churn-storm --scale quick --seed 1 --json
//! cargo run --release --bin lockss-sim -- run --file examples/campaign.json --scale quick
//! cargo run --release --bin lockss-sim -- run baseline --scale quick --record t.bin
//! cargo run --release --bin lockss-sim -- validate scenarios/*.json
//! cargo run --release --bin lockss-sim -- fuzz --seeds 1..200
//! cargo run --release --bin lockss-sim -- replay t.bin
//! cargo run --release --bin lockss-sim -- trace diff a.bin b.bin
//! cargo run --release --bin lockss-sim -- trace stats traces/*.bin
//! cargo run --release --bin lockss-sim -- trace convert old-v1.bin new-v2.bin
//! cargo run --release --bin lockss-sim -- trace export t.bin --csv timeline.csv
//! cargo run --release --bin lockss-sim -- sweep baseline --record traces/
//! cargo run --release --bin lockss-sim -- figure fig3 fig4 fig5 --scale quick
//! ```
//!
//! `run` executes the scenario (plus its matched no-attack baseline when an
//! attack is installed, for the §6.1 ratio metrics), prints the metric
//! report, and writes a JSON summary to `results/scenario-<name>.json`.
//! Output is a pure function of `(name, scale, seeds)` — the same
//! invocation reproduces the same bytes, which is what makes the trace
//! verbs sound: `--record` captures the full causal event stream (one
//! file per `run`, a directory of per-seed traces per `sweep`), `replay`
//! re-drives the recorded scenario and verifies event-for-event
//! equivalence (a perturbed `--seed` shows the first divergence instead),
//! `trace diff` aligns two recordings, `trace stats` rebuilds
//! per-poll/per-phase timelines (aggregating across many traces), `trace
//! convert` migrates `LTRC1` recordings to the block-columnar `LTRC2`
//! wire, and `trace export` renders a CSV timeline. The analytics decode
//! blocks on a worker pool and render byte-identical output at any
//! `--threads` count.
//!
//! `figure <id>... | all` regenerates the paper's figures and tables from
//! the declarative table in `lockss_experiments::figures`: each prints its
//! table and writes `results/<id>.{txt,csv}`; figures that share a sweep
//! (3–5, 6–8) share one in-memory computation of it per invocation.

use lockss_experiments::figures::{self, Sweeps};
use lockss_experiments::fuzz::run_fuzz;
use lockss_experiments::obs::{ObsSession, SweepObs, Telemetry};
use lockss_experiments::runner::{
    default_threads, peak_rss_kb, replay_once, run, run_batch, Occupancy, RunOptions, Sink,
};
use lockss_experiments::sweep::{
    self, campaign_status, dispatch, jobfile, load_checkpoint, merge_files, parse_seed_range,
    parse_shard_arg, render_status, run_sweep_plan, DispatchPlan, ShardTag, SweepOptions,
    SweepReport,
};
use lockss_experiments::{
    run_recovery_study, save_results, RecoveryStudy, Scale, ScenarioEntry, ScenarioRegistry,
    ScenarioSpec,
};
use lockss_metrics::table::{ratio, sci};
use lockss_metrics::{PhaseSummary, Summary, Table};
use lockss_obs::{unix_ms_now, Profiler};
use lockss_trace::{
    diff_traces_threaded, export_csv, trace_stats_threaded, AggregateStats, Trace, TraceMeta,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn usage() -> ! {
    eprintln!(
        "usage: lockss-sim <command> [options]\n\
         \n\
         commands:\n\
         \x20 list [--names]           all registered scenarios (--names: bare names)\n\
         \x20 describe <name>          one scenario in detail\n\
         \x20 run <name>               run a scenario and report the metrics\n\
         \x20 run --file <path>        run a declarative scenario file instead of a\n\
         \x20                          registered name\n\
         \x20 validate <path>...       check scenario files against the spec grammar;\n\
         \x20                          errors carry line/field context, exits 1 on any\n\
         \x20 fuzz                     generate + run random campaigns under the three\n\
         \x20                          oracles (round-trip, accounting, replay); shrunk\n\
         \x20                          reproducers land in --out on violation\n\
         \x20 sweep <name>             run a seed sweep on a worker pool; the merged\n\
         \x20                          report is byte-identical for any --threads and\n\
         \x20                          resumes from --checkpoint after interruption;\n\
         \x20                          --shard i/N runs only the i-th disjoint slice\n\
         \x20                          of the seed range and tags the checkpoint with\n\
         \x20                          the topology\n\
         \x20 sweep merge <files>...   validate a set of shard checkpoints (disjoint,\n\
         \x20                          complete, same campaign) and write the merged\n\
         \x20                          report — byte-identical to a single-process\n\
         \x20                          run; any topology violation exits 1\n\
         \x20 sweep dispatch <name>    fan --shards N worker subprocesses out over\n\
         \x20                          the seed range with retry + backoff, straggler\n\
         \x20                          re-dispatch via heartbeat/checkpoint freshness,\n\
         \x20                          and a final validated merge; --jobfile writes\n\
         \x20                          the per-shard command lines instead of running\n\
         \x20 sweep status <dir>       render campaign progress from the checkpoints\n\
         \x20                          (and heartbeat telemetry) under <dir>\n\
         \x20 sweep recovery           mobile-takeover recovery threshold study: one\n\
         \x20                          row per --budgets entry with time-to-heal\n\
         \x20                          p50/p90 and a heals/data-loss verdict over\n\
         \x20                          --seeds; byte-identical for any --threads;\n\
         \x20                          --attack-days / --heal-window reshape the\n\
         \x20                          campaign; report lands at --out (default\n\
         \x20                          results/recovery-threshold.txt)\n\
         \x20 figure <id>... | all     regenerate the paper's figures and tables\n\
         \x20                          (fig2..fig8, table1, ablations, churn,\n\
         \x20                          effort_report) into results/<id>.{{txt,csv}};\n\
         \x20                          figures sharing a sweep compute it once\n\
         \x20 replay <trace>           re-run a recorded trace's scenario and verify\n\
         \x20                          event-for-event equivalence\n\
         \x20 trace diff <a> <b>       align two traces (either wire) and summarize\n\
         \x20                          where they fork; blocks decode in parallel\n\
         \x20 trace stats <trace>...   per-poll/per-phase timelines from one trace, or\n\
         \x20                          an aggregate table over many (e.g. a recorded\n\
         \x20                          sweep directory); --json: machine-readable\n\
         \x20 trace convert <in> <out> rewrite a trace in the block-columnar LTRC2\n\
         \x20                          wire (LTRC1 stays readable everywhere)\n\
         \x20 trace export <trace>     dense CSV timeline of the event stream\n\
         \x20                          (--csv <path>: write instead of stdout;\n\
         \x20                          --bucket-days <N>: row width, default 1)\n\
         \x20 bench diff <base> <new>..  compare bench reports mean-vs-mean with a\n\
         \x20                          noise band; --gate exits 1 on a >25%\n\
         \x20                          regression of the named hot benches;\n\
         \x20                          --gate-pct N tightens the limit to N%, and\n\
         \x20                          --gate-bench <glob> (repeatable) gates only\n\
         \x20                          the named benches\n\
         \n\
         options:\n\
         \x20 --scale <quick|default|paper>   experiment scale (or LOCKSS_SCALE)\n\
         \x20 --seed <N>                      run exactly one seed (replay: perturb\n\
         \x20                                 the recorded seed to find the fork)\n\
         \x20 --seeds <K>                     run seeds 1..=K (default: the scale's);\n\
         \x20                                 sweep also accepts a range A..B\n\
         \x20 --threads <N>                   sweep worker threads (default: all cores)\n\
         \x20 --checkpoint <path>             sweep: resumable checkpoint/report path\n\
         \x20                                 (default results/sweep-<name>.json, or\n\
         \x20                                 ...-shard-<i>of<N>.json with --shard)\n\
         \x20 --fresh                         sweep: ignore an existing checkpoint\n\
         \x20                                 and recompute every seed\n\
         \x20 --shard <i/N>                   sweep: run the i-th of N disjoint seed\n\
         \x20                                 slices (1-based)\n\
         \x20 --shards <N>                    dispatch: shard count (default: cores)\n\
         \x20 --out <path>                    merge/dispatch: merged report path\n\
         \x20                                 (default results/sweep-<name>.json)\n\
         \x20 --dir <path>                    dispatch: shard checkpoint/log directory\n\
         \x20                                 (default results)\n\
         \x20 --jobfile <path>                dispatch: write per-shard command lines\n\
         \x20                                 to <path> instead of running them\n\
         \x20 --retries <N>                   dispatch: re-dispatches per shard\n\
         \x20                                 (default 3)\n\
         \x20 --backoff-ms <N>                dispatch: base retry backoff, doubling\n\
         \x20                                 per attempt (default 250)\n\
         \x20 --stall-secs <N>                dispatch: kill + re-dispatch a worker\n\
         \x20                                 making no heartbeat/checkpoint progress\n\
         \x20                                 this long (default: off)\n\
         \x20 --profile                       run/sweep: time span trees (world build,\n\
         \x20                                 simulate, trace seal, worker chunks) and\n\
         \x20                                 write results/profile-<name>.json\n\
         \x20 --metrics-out <path>            run/sweep: snapshot the metrics registry\n\
         \x20                                 as JSON at <path> plus Prometheus text\n\
         \x20                                 at <path stem>.prom\n\
         \x20 --telemetry <dir>               sweep: append heartbeat JSONL records\n\
         \x20                                 under <dir> every ~2s; dispatch: pass\n\
         \x20                                 through to workers and prefer heartbeat\n\
         \x20                                 freshness for stall detection; status:\n\
         \x20                                 heartbeat directory when it differs from\n\
         \x20                                 the checkpoint directory\n\
         \x20 --mem-report                    print peak RSS and arena/table occupancy\n\
         \x20 --record <path>                 run: record the run's event trace (one\n\
         \x20                                 seed); sweep: directory for per-seed\n\
         \x20                                 traces (trace-<name>-s<seed>.bin)\n\
         \x20 --threads <N>                   trace stats/diff/export: decoder threads\n\
         \x20                                 (output is identical at any count)\n\
         \x20 --out <dir>                     fuzz: reproducer directory (default\n\
         \x20                                 results/fuzz)\n\
         \x20 --json                          print the JSON summary to stdout"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The parsed value of a numeric flag, if given. A value that does not
/// parse is CLI misuse: exit 2 naming the flag and the offending value.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, wants: &str) -> Option<T> {
    flag_value(args, flag).map(|s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("{flag} wants {wants}, got '{s}'")))
    })
}

/// The positional operand at `args[i]`; a missing one, or a flag in its
/// place, is misuse.
fn operand(args: &[String], i: usize) -> &str {
    match args.get(i) {
        Some(arg) if !arg.starts_with("--") => arg,
        _ => usage(),
    }
}

/// Worker threads (`--threads N`, default: all cores).
fn threads_flag(args: &[String]) -> usize {
    parsed_flag(args, "--threads", "a positive integer").unwrap_or_else(default_threads)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = ScenarioRegistry::standard();
    let scale = Scale::from_env_and_args();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.iter().any(|a| a == "--names") {
                for name in registry.names() {
                    println!("{name}");
                }
            } else {
                list(&registry, scale);
            }
        }
        Some("describe") => {
            describe(&registry, operand(&args, 1), scale);
        }
        Some("run") => {
            let entry = if let Some(path) = flag_value(&args, "--file") {
                load_entry(&path)
            } else {
                resolve(&registry, operand(&args, 1)).clone()
            };
            run_cmd(&entry, scale, &args);
        }
        Some("figure") => figure(&args[1..], scale),
        Some("validate") => {
            let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
            if paths.is_empty() {
                usage();
            }
            validate(&paths);
        }
        Some("fuzz") => {
            let seeds = match flag_value(&args, "--seeds") {
                Some(arg) => parse_seed_range(&arg).unwrap_or_else(|e| fail(&e)),
                None => (1..=50).collect(),
            };
            let out = flag_value(&args, "--out").unwrap_or_else(|| "results/fuzz".to_string());
            fuzz(&seeds, &out);
        }
        Some("sweep") => match args.get(1).map(String::as_str) {
            Some("merge") => {
                let files: Vec<PathBuf> = args[2..]
                    .iter()
                    .take_while(|a| !a.starts_with("--"))
                    .map(PathBuf::from)
                    .collect();
                if files.is_empty() {
                    usage();
                }
                let out = flag_value(&args, "--out");
                let json = args.iter().any(|a| a == "--json");
                sweep_merge(&files, out.as_deref(), json);
            }
            Some("dispatch") => sweep_dispatch(&registry, operand(&args, 2), scale, &args),
            Some("status") => {
                let dir = operand(&args, 2);
                let telemetry = flag_value(&args, "--telemetry").unwrap_or_else(|| dir.into());
                sweep_status(Path::new(dir), Path::new(&telemetry));
            }
            Some("recovery") => sweep_recovery(&args),
            Some(name) if !name.starts_with("--") => sweep_cmd(&registry, name, scale, &args),
            _ => usage(),
        },
        Some("replay") => {
            let seed = parsed_flag(&args, "--seed", "a seed number");
            replay(&registry, operand(&args, 1), seed);
        }
        Some("bench") => match args.get(1).map(String::as_str) {
            Some("diff") => {
                // Flag values ("2", "world/simulate*") must not be
                // mistaken for report files, so walk the args by hand.
                let mut files: Vec<String> = Vec::new();
                let mut gate = false;
                let mut gate_pct: Option<f64> = None;
                let mut gate_benches: Vec<String> = Vec::new();
                let mut i = 2;
                while i < args.len() {
                    match args[i].as_str() {
                        "--gate" => gate = true,
                        "--gate-pct" => {
                            i += 1;
                            let v = args
                                .get(i)
                                .and_then(|s| s.parse::<f64>().ok())
                                .filter(|p| p.is_finite() && *p > 0.0)
                                .unwrap_or_else(|| fail("--gate-pct wants a percentage > 0"));
                            gate_pct = Some(v);
                        }
                        "--gate-bench" => {
                            i += 1;
                            let v = args
                                .get(i)
                                .cloned()
                                .unwrap_or_else(|| fail("--gate-bench wants a bench name or glob"));
                            gate_benches.push(v);
                        }
                        a if a.starts_with("--") => usage(),
                        a => files.push(a.to_string()),
                    }
                    i += 1;
                }
                let (base, news) = match files.split_first() {
                    Some((base, news)) if !news.is_empty() => (base, news),
                    _ => usage(),
                };
                // A tightened limit or an explicit bench list implies gating.
                let gate = gate || gate_pct.is_some() || !gate_benches.is_empty();
                let threshold = gate_pct.map(|p| p / 100.0).unwrap_or(0.25);
                bench_diff(base, news, gate, threshold, &gate_benches);
            }
            _ => usage(),
        },
        Some("trace") => match args.get(1).map(String::as_str) {
            Some("diff") => {
                let paths = operands(&args[2..], &["--threads"]);
                let [a, b] = paths.as_slice() else { usage() };
                let threads = threads_flag(&args);
                let diff = diff_traces_threaded(&load_trace(a), &load_trace(b), threads)
                    .unwrap_or_else(|e| fail(&format!("diffing: {e}")));
                print!("{diff}");
            }
            Some("stats") => {
                let paths = operands(&args[2..], &["--threads"]);
                if paths.is_empty() {
                    usage();
                }
                let threads = threads_flag(&args);
                let json = args.iter().any(|a| a == "--json");
                let stats_of = |path: &String| {
                    trace_stats_threaded(&load_trace(path), threads)
                        .unwrap_or_else(|e| fail(&format!("stats: {path}: {e}")))
                };
                // One trace prints its own timelines, several an aggregate.
                match (paths.as_slice(), json) {
                    ([path], true) => print!("{}", stats_of(path).to_json()),
                    ([path], false) => print!("{}", stats_of(path)),
                    (many, json) => {
                        let per_trace = many.iter().map(|p| (p.clone(), stats_of(p)));
                        let agg = AggregateStats::new(per_trace.collect());
                        if json {
                            print!("{}", agg.to_json());
                        } else {
                            print!("{agg}");
                        }
                    }
                }
            }
            Some("convert") => {
                let paths = operands(&args[2..], &[]);
                let [input, output] = paths.as_slice() else {
                    usage()
                };
                trace_convert(input, output);
            }
            Some("export") => {
                let paths = operands(&args[2..], &["--threads", "--csv", "--bucket-days"]);
                let [path] = paths.as_slice() else { usage() };
                let bucket_days: u64 =
                    parsed_flag(&args, "--bucket-days", "a day count").unwrap_or(1);
                let threads = threads_flag(&args);
                let csv = export_csv(&load_trace(path), threads, bucket_days)
                    .unwrap_or_else(|e| fail(&format!("exporting: {e}")));
                match flag_value(&args, "--csv") {
                    Some(out) => {
                        write_file(&out, &csv);
                        println!("wrote {out} ({} rows)", csv.lines().count() - 1);
                    }
                    None => print!("{csv}"),
                }
            }
            _ => usage(),
        },
        _ => usage(),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("lockss-sim: {msg}");
    std::process::exit(2);
}

/// A `verb` that failed on its *inputs or outputs* — files, shard
/// topology, worker processes — exits 1, distinct from exit 2 (CLI misuse).
fn die(verb: &str, msg: &str) -> ! {
    eprintln!("lockss-sim: {verb}: {msg}");
    std::process::exit(1);
}

/// Reads a scenario file and checks it against the spec grammar and the
/// semantic validation; errors carry line/field context.
fn read_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let spec = ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Loads a declarative scenario file as a runnable entry, exiting with
/// the spec error on a bad file.
fn load_entry(path: &str) -> ScenarioEntry {
    ScenarioEntry::new(read_spec(path).unwrap_or_else(|e| fail(&format!("{path}: {e}"))))
}

/// Checks each scenario file, printing one line per file. Exits 1 if any
/// file fails.
fn validate(paths: &[&String]) {
    let mut bad = 0usize;
    for path in paths {
        match read_spec(path) {
            Ok(spec) => println!("{path}: ok ({})", spec.name),
            Err(e) => {
                println!("{path}: {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        eprintln!("{bad} of {} file(s) failed validation", paths.len());
        std::process::exit(1);
    }
}

/// Generates and runs one random campaign per seed under the three
/// oracles, writing a shrunk reproducer spec per violation. Exits 1 if
/// any oracle fired.
fn fuzz(seeds: &[u64], out_dir: &str) {
    println!(
        "fuzzing {} campaign(s) (seeds {}..{}), reproducers to {out_dir}/",
        seeds.len(),
        seeds.first().copied().unwrap_or(0),
        seeds.last().copied().unwrap_or(0),
    );
    let outcome = run_fuzz(seeds, |line| println!("  {line}"));
    println!(
        "\n{} campaign(s): {} coverage signature(s), {} corpus mutation(s), \
         {} poll(s) concluded, {} violation(s)",
        outcome.campaigns,
        outcome.signatures,
        outcome.mutated,
        outcome.polls_observed,
        outcome.failures.len()
    );
    if outcome.polls_observed == 0 {
        println!("warning: no campaign concluded a single poll; the oracles saw nothing");
    }
    if outcome.failures.is_empty() {
        return;
    }
    for f in &outcome.failures {
        let path = format!("{out_dir}/fuzz-{}-{}.json", f.gen_seed, f.violation.oracle);
        write_file(&path, &f.minimized.to_json());
        println!(
            "seed {}: {} -> reproducer {path} (re-run with `lockss-sim run --file {path} \
             --scale quick --seed {}`)",
            f.gen_seed, f.violation, f.run_seed
        );
    }
    std::process::exit(1);
}

/// Compares a baseline bench report against one or more new reports
/// (merged in argument order) and prints the per-bench deltas. With
/// `gate`, exits 1 if any gated bench regressed beyond `threshold`
/// (a ratio; `--gate-pct N` sets N/100, default 0.25), or if a gated
/// baseline bench is missing from the new reports. `patterns` overrides
/// the default [`lockss_bench::diff::GATED_BENCHES`] list when
/// non-empty.
fn bench_diff(
    base_path: &str,
    new_paths: &[String],
    gate: bool,
    threshold: f64,
    patterns: &[String],
) {
    use lockss_bench::diff::{self, GATED_BENCHES};

    let read = |path: &str| -> Vec<diff::ParsedBench> {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        diff::parse_report(&text).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")))
    };
    let base = read(base_path);
    let mut new = Vec::new();
    for p in new_paths {
        new.extend(read(p));
    }
    let pats: Vec<&str> = if patterns.is_empty() {
        GATED_BENCHES.to_vec()
    } else {
        patterns.iter().map(String::as_str).collect()
    };

    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e6 {
            format!("{:.2}ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.1}µs", ns / 1e3)
        } else {
            format!("{ns:.0}ns")
        }
    }

    let report = diff::diff_benches(&base, &new);
    let mut table = Table::new(vec!["benchmark", "baseline", "new", "delta", "band", ""]);
    for d in &report.deltas {
        table.row(vec![
            d.name.clone(),
            fmt_ns(d.base_mean_ns),
            fmt_ns(d.new_mean_ns),
            format!("{:+.1}%", (d.ratio - 1.0) * 100.0),
            format!("±{:.0}%", d.noise_band * 100.0),
            match (d.significant(), d.ratio > 1.0) {
                (false, _) => String::new(),
                (true, false) => "faster".to_string(),
                (true, true) => "SLOWER".to_string(),
            },
        ]);
    }
    print!("{}", table.render());
    for name in &report.missing {
        println!("missing from new report: {name}");
    }
    for name in &report.added {
        println!("new benchmark (no baseline): {name}");
    }

    if gate {
        let offenders = diff::gate(&report, &pats, threshold);
        let missing_gated: Vec<&String> = report
            .missing
            .iter()
            .filter(|n| pats.iter().any(|p| diff::name_matches(p, n)))
            .collect();
        for d in &offenders {
            eprintln!(
                "GATE: {} regressed {:+.1}% (limit +{:.1}%)",
                d.name,
                (d.ratio - 1.0) * 100.0,
                threshold * 100.0
            );
        }
        for n in &missing_gated {
            eprintln!("GATE: gated benchmark '{n}' missing from the new report");
        }
        if !offenders.is_empty() || !missing_gated.is_empty() {
            std::process::exit(1);
        }
        println!(
            "gate passed: no gated bench regressed more than {:.1}%",
            threshold * 100.0
        );
    }
}

/// The observability a `run` or `sweep` invocation asked for: span
/// profiling, a registry snapshot destination, and (sweeps only) the
/// heartbeat telemetry directory. Strictly out-of-band — instruments never
/// change a summary, a checkpoint or a trace.
struct Obs {
    metrics_out: Option<String>,
    telemetry: Option<String>,
    /// The metric handles every run shares; present when any switch is on.
    session: Option<ObsSession>,
    /// With `--profile`: the tree every worker's spans are merged into.
    profile: Option<Mutex<Profiler>>,
}

impl Obs {
    fn parse(args: &[String]) -> Obs {
        let profile = args.iter().any(|a| a == "--profile");
        let metrics_out = flag_value(args, "--metrics-out");
        let telemetry = flag_value(args, "--telemetry");
        Obs {
            session: (profile || metrics_out.is_some() || telemetry.is_some())
                .then(ObsSession::new),
            profile: profile.then(|| Mutex::new(Profiler::new())),
            metrics_out,
            telemetry,
        }
    }

    /// The hooks batch and sweep workers run under.
    fn sweep_obs(&self) -> Option<SweepObs<'_>> {
        self.session.as_ref().map(|session| SweepObs {
            session,
            profiler: self.profile.as_ref(),
            telemetry: self
                .telemetry
                .as_deref()
                .map(|d| Telemetry::new(Path::new(d))),
        })
    }

    /// Writes what was asked for: the merged span tree to
    /// `results/profile-<name>.json`, the registry as JSON at
    /// `--metrics-out` plus Prometheus text beside it.
    fn finish(&self, name: &str) {
        if let Some(merged) = &self.profile {
            let path = format!("results/profile-{name}.json");
            write_file(&path, &merged.lock().unwrap().to_json(name));
            println!("wrote {path}");
        }
        if let (Some(session), Some(out)) = (&self.session, &self.metrics_out) {
            match session.write_metrics(Path::new(out)) {
                Ok(prom) => println!("wrote {out} and {}", prom.display()),
                Err(e) => fail(&format!("writing {out}: {e}")),
            }
        }
    }
}

/// Writes `content` to `path`, creating its directory first; a failure is
/// fatal and names the path.
fn write_file(path: &str, content: &str) {
    if let Some(dir) = Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, content).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
}

/// Renders campaign progress from the checkpoints under `dir`, pairing
/// each with its heartbeat file under `telemetry`.
fn sweep_status(dir: &Path, telemetry: &Path) {
    let statuses = campaign_status(dir, telemetry).unwrap_or_else(|e| die("sweep status", &e));
    print!("{}", render_status(&statuses, unix_ms_now()));
}

/// Runs the post-compromise recovery threshold study: one row per
/// mobile-takeover concurrency budget, reporting time-to-heal quantiles
/// and a heals/data-loss verdict. Byte-deterministic for any --threads.
fn sweep_recovery(args: &[String]) {
    let mut study = RecoveryStudy::default();
    if let Some(arg) = flag_value(args, "--budgets") {
        study.budgets = arg
            .split(',')
            .map(|b| {
                b.trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|b| *b > 0)
                    .unwrap_or_else(|| fail("--budgets wants positive integers, e.g. 1,2,4,8"))
            })
            .collect();
    }
    if let Some(arg) = flag_value(args, "--seeds") {
        study.seeds = parse_seed_range(&arg).unwrap_or_else(|e| fail(&e));
    }
    for (flag, slot) in [
        ("--attack-days", &mut study.attack_days),
        ("--heal-window", &mut study.heal_window_days),
        ("--period", &mut study.period_days),
    ] {
        if let Some(arg) = flag_value(args, flag) {
            *slot = arg
                .parse::<u64>()
                .ok()
                .filter(|d| *d > 0)
                .unwrap_or_else(|| fail(&format!("{flag} wants a positive day count")));
        }
    }
    let out = flag_value(args, "--out").unwrap_or_else(|| "results/recovery-threshold.txt".into());
    let rendered = run_recovery_study(&study, threads_flag(args)).render();
    print!("{rendered}");
    write_file(&out, &rendered);
    println!("wrote {out}");
}

/// Runs a seed sweep of one registered scenario across a worker pool —
/// the whole campaign, or (with `--shard i/N`) one disjoint slice of it.
///
/// The merged report is byte-identical regardless of `threads` (per-seed
/// result slots, seed-ordered reduction), and a sweep interrupted mid-way
/// resumes from its `--checkpoint` file, producing the same final bytes
/// as an uninterrupted run. Observability (`--profile`, `--metrics-out`,
/// `--telemetry`) is strictly out-of-band: it never changes those bytes.
fn sweep_cmd(registry: &ScenarioRegistry, name: &str, scale: Scale, args: &[String]) {
    let seeds = match flag_value(args, "--seeds") {
        Some(arg) => parse_seed_range(&arg).unwrap_or_else(|e| fail(&e)),
        None => (1..=scale.seeds()).collect(),
    };
    let shard = flag_value(args, "--shard").map(|arg| {
        let (index, count) = parse_shard_arg(&arg).unwrap_or_else(|e| fail(&e));
        ShardTag::new(index, count, seeds.clone()).unwrap_or_else(|e| fail(&e))
    });
    let threads = threads_flag(args);
    let checkpoint = flag_value(args, "--checkpoint");
    let obs = Obs::parse(args);
    let record = flag_value(args, "--record").map(PathBuf::from);
    let record = record.as_deref();
    let entry = resolve(registry, name);
    let scenario = entry.build(scale);
    let default_path = match &shard {
        Some(tag) => format!(
            "results/sweep-{}-shard-{}of{}.json",
            entry.name(),
            tag.index,
            tag.count
        ),
        None => format!("results/sweep-{}.json", entry.name()),
    };
    let path = PathBuf::from(checkpoint.unwrap_or(default_path));
    // --fresh ignores any existing checkpoint: without it, a rerun after a
    // code change would replay the stale per-seed summaries verbatim.
    let resume = if args.iter().any(|a| a == "--fresh") {
        None
    } else {
        load_checkpoint(&path, entry.name(), scale.label(), shard.as_ref())
    };
    let done_before = resume.as_ref().map(|r| r.completed.len()).unwrap_or(0);
    let shard_seeds = shard.as_ref().map(ShardTag::seeds);
    let my_seeds: &[u64] = shard_seeds.as_deref().unwrap_or(&seeds);
    println!(
        "sweeping '{}' at scale '{}': {} seed(s){} on {} thread(s){}",
        entry.name(),
        scale.label(),
        my_seeds.len(),
        shard
            .as_ref()
            .map(|t| format!(
                " (shard {} of a {}-seed campaign)",
                t.label(),
                t.campaign.len()
            ))
            .unwrap_or_default(),
        threads,
        if done_before > 0 {
            format!(" ({done_before} already in {})", path.display())
        } else {
            String::new()
        }
    );
    let sweep_obs = obs.sweep_obs();
    if let Some(dir) = record {
        println!(
            "recording per-seed traces under {} (resumed seeds are not re-recorded)",
            dir.display()
        );
    }
    let plan = match shard {
        Some(tag) => SweepReport::new_shard(entry.name(), scale.label(), tag),
        None => SweepReport::new(entry.name(), scale.label(), seeds),
    };
    let opts = SweepOptions {
        threads,
        checkpoint: Some(&path),
        resume,
        obs: sweep_obs.as_ref(),
        record,
    };
    let report = run_sweep_plan(&scenario, plan, &opts);

    let mut table = Table::new(vec![
        "seed",
        "access failure",
        "gap p50",
        "gap p90",
        "ok",
        "failed",
        "alarms",
    ]);
    let fmt_gap = |d: Option<lockss_sim::Duration>| {
        d.map(|d| format!("{:.0}d", d.as_days_f64()))
            .unwrap_or_else(|| "-".into())
    };
    for (seed, s) in &report.completed {
        table.row(vec![
            seed.to_string(),
            sci(s.access_failure_probability),
            fmt_gap(s.gap_p50),
            fmt_gap(s.gap_p90),
            s.successful_polls.to_string(),
            s.failed_polls.to_string(),
            s.alarms.to_string(),
        ]);
    }
    print!("{}", table.render());
    if let Some(m) = report.merged() {
        println!(
            "\nmerged over {} seed(s): access failure {}, {} ok / {} failed, \
             loyal {:.0} CPU-s",
            report.completed.len(),
            sci(m.access_failure_probability),
            m.successful_polls,
            m.failed_polls,
            m.loyal_effort_secs
        );
    }
    // The report claims persistence only after re-reading the file: a full
    // disk or unwritable results/ must fail loudly, not lose a multi-hour
    // sweep silently.
    match std::fs::read_to_string(&path) {
        Ok(on_disk) if on_disk == report.to_json() => println!("wrote {}", path.display()),
        _ => fail(&format!(
            "sweep finished but the report at {} is missing or stale (checkpoint writes failed?)",
            path.display()
        )),
    }
    if let Some(tag) = &report.shard {
        println!(
            "shard {} complete; reassemble the campaign with: \
             lockss-sim sweep merge <all {} shard checkpoints>",
            tag.label(),
            tag.count
        );
    }
    obs.finish(entry.name());
    if args.iter().any(|a| a == "--json") {
        print!("{}", report.to_json());
    }
    if args.iter().any(|a| a == "--mem-report") {
        // One representative run: a sweep keeps no world around.
        let seed = report.seeds.first().copied().unwrap_or(1);
        mem_report(
            seed,
            &run(&scenario, seed, &RunOptions::default()).occupancy,
        );
    }
}

/// Validates and reassembles shard checkpoints into the campaign report.
/// Every topology violation — overlapping or missing seed ranges,
/// mismatched scenario/scale tags, truncated files, a foreign format
/// version, duplicate shard submissions — is a distinct diagnostic and
/// exit 1. On success the merged report is byte-identical to what a
/// single-process sweep of the whole seed range writes.
fn sweep_merge(files: &[PathBuf], out: Option<&str>, json_out: bool) {
    let report = merge_files(files).unwrap_or_else(|e| die("sweep merge", &e));
    let default_path = format!("results/sweep-{}.json", report.scenario);
    let path = PathBuf::from(out.unwrap_or(&default_path));
    let rendered = report.to_json();
    if let Err(e) = sweep::write_checkpoint(&path, &rendered) {
        die("sweep merge", &format!("writing {}: {e}", path.display()));
    }
    match std::fs::read_to_string(&path) {
        Ok(on_disk) if on_disk == rendered => {}
        _ => die(
            "sweep merge",
            &format!(
                "merged report at {} is missing or stale after writing it",
                path.display()
            ),
        ),
    }
    let merged = report.merged().expect("a valid merge has completed seeds");
    println!(
        "merged {} shard(s) of '{}' (scale '{}') covering {} seed(s): \
         access failure {}, {} ok / {} failed",
        files.len(),
        report.scenario,
        report.scale,
        report.seeds.len(),
        sci(merged.access_failure_probability),
        merged.successful_polls,
        merged.failed_polls,
    );
    println!("wrote {}", path.display());
    if json_out {
        print!("{rendered}");
    }
}

/// Fans a campaign out over shard worker subprocesses (or, with
/// `--jobfile`, writes their command lines for host-level fan-out),
/// survives worker deaths via retry-with-backoff and checkpoint-freshness
/// straggler re-dispatch, then merges and writes the campaign report.
fn sweep_dispatch(registry: &ScenarioRegistry, name: &str, scale: Scale, args: &[String]) {
    let entry = resolve(registry, name);
    let seeds_arg = flag_value(args, "--seeds").unwrap_or_else(|| scale.seeds().to_string());
    let campaign = parse_seed_range(&seeds_arg).unwrap_or_else(|e| fail(&e));
    let parse_num =
        |flag: &str, default: u64| parsed_flag(args, flag, "a number").unwrap_or(default);
    let plan = DispatchPlan {
        scenario: entry.name().to_string(),
        scale: scale.label().to_string(),
        seeds_arg,
        campaign,
        shards: parse_num("--shards", default_threads() as u64),
        threads_per_shard: parse_num("--threads", 1) as usize,
        retries: parse_num("--retries", 3) as u32,
        backoff_ms: parse_num("--backoff-ms", 250),
        stall_secs: parsed_flag(args, "--stall-secs", "a number"),
        dir: PathBuf::from(flag_value(args, "--dir").unwrap_or_else(|| "results".into())),
        out: PathBuf::from(
            flag_value(args, "--out")
                .unwrap_or_else(|| format!("results/sweep-{}.json", entry.name())),
        ),
        fresh: args.iter().any(|a| a == "--fresh"),
        telemetry: flag_value(args, "--telemetry").map(PathBuf::from),
    };
    let bin = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));

    if let Some(jobfile_path) = flag_value(args, "--jobfile") {
        let text = jobfile(&plan, &bin).unwrap_or_else(|e| fail(&e));
        write_file(&jobfile_path, &text);
        println!(
            "wrote {jobfile_path}: {} shard command(s) + 1 merge for '{}' \
             ({} seed(s), scale '{}')",
            plan.shards,
            plan.scenario,
            plan.campaign.len(),
            plan.scale
        );
        return;
    }

    println!(
        "dispatching '{}' at scale '{}': {} seed(s) over {} shard worker(s) \
         x {} thread(s), {} retr{} each{}{}",
        plan.scenario,
        plan.scale,
        plan.campaign.len(),
        plan.shards,
        plan.threads_per_shard,
        plan.retries,
        if plan.retries == 1 { "y" } else { "ies" },
        plan.stall_secs
            .map(|s| format!(", {s}s stall window"))
            .unwrap_or_default(),
        plan.telemetry
            .as_ref()
            .map(|d| format!(", heartbeats under {}", d.display()))
            .unwrap_or_default()
    );
    let report = dispatch(&bin, &plan, &mut |line| println!("  {line}"))
        .unwrap_or_else(|e| die("sweep dispatch", &e));
    let merged = report.merged().expect("a dispatched campaign has results");
    println!(
        "campaign complete: {} seed(s), access failure {}, {} ok / {} failed, \
         loyal {:.0} CPU-s",
        report.completed.len(),
        sci(merged.access_failure_probability),
        merged.successful_polls,
        merged.failed_polls,
        merged.loyal_effort_secs
    );
    println!("wrote {}", plan.out.display());
    if args.iter().any(|a| a == "--json") {
        print!("{}", report.to_json());
    }
}

/// Prints the process's peak RSS plus the event-arena and peer-table
/// occupancy one run of `seed` ended with.
fn mem_report(seed: u64, occupancy: &Occupancy) {
    let Occupancy {
        arena_live,
        arena_total,
        events_executed,
        events_queued,
        queue_buffer_bytes,
        table,
    } = occupancy;
    println!("\nmemory report (seed {seed}):");
    println!(
        "  peak RSS                  {}",
        peak_rss_kb()
            .map(|kb| format!("{:.1} MiB", kb as f64 / 1024.0))
            .unwrap_or_else(|| "unavailable on this platform".into())
    );
    println!("  event arena               {arena_live} live / {arena_total} high-water slots");
    println!(
        "  events                    {events_executed} executed, {events_queued} queued at horizon"
    );
    println!(
        "  event queue               {} KiB of slot buffers holding those",
        queue_buffer_bytes / 1024
    );
    println!(
        "  peer table                {} peers x {} AU(s)",
        table.peers, table.aus_per_peer
    );
    println!(
        "  reputation entries        {} materialized (lazy founding-population rule)",
        table.known_entries
    );
    println!("  reference-list entries    {}", table.reflist_entries);
    println!(
        "  live polls / voter sessions  {} / {}",
        table.live_polls, table.voter_sessions
    );
    println!(
        "  last-admission stamps     {}",
        table.last_admission_entries
    );
    println!("  introductions outstanding {}", table.introductions);
}

fn load_trace(path: &str) -> Trace {
    Trace::read_from(Path::new(path)).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
}

/// Collects the bare (non-flag) operands from `args`, skipping the value
/// token after any flag listed in `value_flags`.
fn operands(args: &[String], value_flags: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if value_flags.contains(&args[i].as_str()) {
            i += 2;
            continue;
        }
        if !args[i].starts_with("--") {
            out.push(args[i].clone());
        }
        i += 1;
    }
    out
}

/// Rewrites a trace file in the block-columnar `LTRC2` wire and reports
/// the size change. Reading is the conversion: an `LTRC1` input is
/// imported by `Trace::from_bytes`, an `LTRC2` one is copied verbatim.
fn trace_convert(input: &str, output: &str) {
    let file = std::fs::read(input).unwrap_or_else(|e| fail(&format!("reading {input}: {e}")));
    let from_len = file.len();
    let trace =
        Trace::from_bytes(file).unwrap_or_else(|e| fail(&format!("converting {input}: {e}")));
    trace
        .write_to(Path::new(output))
        .unwrap_or_else(|e| fail(&format!("writing {output}: {e}")));
    let to_len = trace.as_bytes().len();
    println!(
        "converted {input} ({} event(s)): {} {from_len} bytes -> LTRC2 {to_len} bytes \
         ({:.2}x), content hash {}",
        trace.events(),
        trace.wire(),
        from_len as f64 / to_len.max(1) as f64,
        trace.content_hash()
    );
    println!("wrote {output}");
}

/// Re-drives a recorded trace's scenario and verifies equivalence. Exits 0
/// on zero divergence, 1 with the first divergence otherwise.
fn replay(registry: &ScenarioRegistry, path: &str, seed_override: Option<u64>) {
    let trace = load_trace(path);
    let meta = trace
        .meta()
        .unwrap_or_else(|e| fail(&format!("header: {e}")));
    let entry = registry.get(&meta.scenario).unwrap_or_else(|| {
        fail(&format!(
            "trace records scenario '{}', which is not in this build's registry",
            meta.scenario
        ))
    });
    let scale = Scale::parse(&meta.scale).unwrap_or_else(|e| fail(&format!("trace header: {e}")));
    let scenario = entry.build(scale);
    let seed = seed_override.unwrap_or(meta.seed);
    println!(
        "replaying {path}: {meta}{}",
        if seed == meta.seed {
            String::new()
        } else {
            format!(" (perturbed to seed {seed})")
        }
    );
    let report =
        replay_once(&scenario, seed, &trace).unwrap_or_else(|e| fail(&format!("replaying: {e}")));
    println!("{report}");
    if !report.is_equivalent() {
        std::process::exit(1);
    }
}

fn resolve<'r>(registry: &'r ScenarioRegistry, name: &str) -> &'r ScenarioEntry {
    registry.get(name).unwrap_or_else(|| {
        eprintln!("unknown scenario '{name}'; `lockss-sim list` shows the registry");
        std::process::exit(2);
    })
}

fn list(registry: &ScenarioRegistry, scale: Scale) {
    println!(
        "{} registered scenarios (scale '{}'):\n",
        registry.len(),
        scale.label()
    );
    let mut table = Table::new(vec!["scenario", "paper", "description"]);
    for e in registry.entries() {
        table.row(vec![e.name(), e.paper_ref(), e.description()]);
    }
    print!("{}", table.render());
}

fn describe(registry: &ScenarioRegistry, name: &str, scale: Scale) {
    let entry = resolve(registry, name);
    let s = entry.build(scale);
    println!("scenario     {}", entry.name());
    println!("paper        {}", entry.paper_ref());
    println!("description  {}", entry.description());
    println!("attack       {}", s.attack.label());
    println!(
        "world        {} peers x {} AUs, mtbf {} disk-years, poll interval {}",
        s.cfg.n_peers, s.cfg.n_aus, s.cfg.mtbf_years, s.cfg.protocol.poll_interval
    );
    println!(
        "run          {} at scale '{}', {} seed(s)",
        s.run_length,
        scale.label(),
        scale.seeds()
    );
}

/// Runs one scenario (plus its matched baseline) over `--seed N` or
/// seeds `1..=K`, prints the metric report and writes the JSON summary.
fn run_cmd(entry: &ScenarioEntry, scale: Scale, args: &[String]) {
    let seeds: Vec<u64> = match parsed_flag(args, "--seed", "a seed number") {
        Some(seed) => vec![seed],
        None => {
            let k = parsed_flag(args, "--seeds", "a seed count").unwrap_or_else(|| scale.seeds());
            (1..=k).collect()
        }
    };
    let seeds = seeds.as_slice();
    if seeds.is_empty() {
        fail("--seeds must be at least 1");
    }
    let record = flag_value(args, "--record");
    let record = record.as_deref();
    if record.is_some() && seeds.len() != 1 {
        fail("--record captures exactly one run; pass --seed N (or --seeds 1)");
    }
    let obs = Obs::parse(args);
    let mem = args.iter().any(|a| a == "--mem-report");
    let scenario = entry.build(scale);
    let attacked_label = scenario.attack.label();
    println!(
        "running '{}' at scale '{}' ({} seed(s), {} threads): {}",
        entry.name(),
        scale.label(),
        seeds.len(),
        default_threads(),
        attacked_label,
    );

    // Observability is out-of-band: instruments never change a summary, so
    // every run below carries them (all-off when nothing was requested).
    // This thread's runs profile into `sp`; batch workers into their own.
    let sp = obs.profile.is_some().then(Profiler::shared);
    let plain = RunOptions {
        sink: None,
        instruments: obs
            .session
            .as_ref()
            .map(|s| s.instruments(sp.clone()))
            .unwrap_or_default(),
    };

    // Matched baseline for the ratio metrics, skipped for baselines.
    let jobs = if scenario.attack.is_none() {
        vec![scenario.clone()]
    } else {
        vec![scenario.clone(), scenario.matched_baseline()]
    };
    // The per-phase breakdown and the memory report describe one run, the
    // first seed's. A single `--seed N` is that run; `run_batch` means
    // over a contiguous 1..=K seed range and keeps no world, so there the
    // first seed runs once more — only when one of the two is wanted.
    let (attacked, baseline, report_run) = if let [seed] = *seeds {
        // `--record` is single-seed (enforced above): the recorded
        // run doubles as the report run, since the sink never perturbs it.
        let opts = match record {
            Some(_) => RunOptions {
                instruments: plain.instruments.clone(),
                ..RunOptions::record(&TraceMeta {
                    scenario: entry.name().to_string(),
                    scale: scale.label().to_string(),
                    seed,
                    run_length_ms: scenario.run_length.as_millis(),
                })
            },
            None => plain.clone(),
        };
        let mut out = run(&jobs[0], seed, &opts);
        if let (Some(path), Some(trace), Some(Sink::Record(recorder))) =
            (record, out.trace.take(), &opts.sink)
        {
            // The sink's own row for the run's time budget: how much of
            // the simulation thread's wall the sealer's back-pressure took.
            let seal = recorder.seal_stats();
            match trace.write_to(Path::new(path)) {
                Ok(()) => println!(
                    "recorded {} event(s) to {path} (content hash {}; {} block(s) sealed, \
                     simulation blocked {:.3} ms on the sealer)",
                    trace.events(),
                    trace.content_hash(),
                    seal.blocks_sealed,
                    seal.blocked_ns as f64 / 1e6
                ),
                Err(e) => fail(&format!("writing {path}: {e}")),
            }
        }
        let b = jobs.get(1).map(|j| run(j, seed, &plain).summary);
        (out.summary.clone(), b, Some(out))
    } else {
        let workers = obs.sweep_obs();
        let out = run_batch(
            &jobs,
            seeds.len() as u64,
            default_threads(),
            workers.as_ref(),
        );
        let mut it = out.into_iter();
        let a = it.next().expect("attacked summary");
        let first =
            (scenario.attack.is_composite() || mem).then(|| run(&scenario, seeds[0], &plain));
        (a, it.next(), first)
    };
    let phases = report_run.as_ref().map_or(&[][..], |r| &r.phases);
    let base = baseline.as_ref().unwrap_or(&attacked);

    println!();
    println!(
        "access failure probability  {}",
        sci(attacked.access_failure_probability)
    );
    if let Some(g) = attacked.mean_time_between_successes {
        println!("mean gap between successes  {g}");
    }
    println!(
        "poll outcomes               {} ok / {} failed / {} alarms",
        attacked.successful_polls, attacked.failed_polls, attacked.alarms
    );
    println!(
        "loyal effort                {:.0} CPU-s",
        attacked.loyal_effort_secs
    );
    if !scenario.attack.is_none() {
        println!(
            "adversary effort            {:.0} CPU-s",
            attacked.adversary_effort_secs
        );
        println!(
            "delay ratio                 {}",
            ratio(attacked.delay_ratio(base))
        );
        println!(
            "coefficient of friction     {}",
            ratio(attacked.coefficient_of_friction(base))
        );
        println!(
            "cost ratio                  {}",
            ratio(attacked.cost_ratio())
        );
    }
    if !phases.is_empty() {
        println!("\nper-phase breakdown (seed {}):", seeds[0]);
        let mut table = Table::new(vec![
            "phase",
            "from",
            "to",
            "access failure",
            "ok",
            "failed",
            "alarms",
            "loyal CPU-s",
            "adv CPU-s",
        ]);
        for p in phases {
            table.row(vec![
                p.label.clone(),
                format!("{:.0}d", p.start.as_days_f64()),
                format!("{:.0}d", p.end.as_days_f64()),
                sci(p.access_failure_probability),
                p.successful_polls.to_string(),
                p.failed_polls.to_string(),
                p.alarms.to_string(),
                format!("{:.0}", p.loyal_effort_secs),
                format!("{:.0}", p.adversary_effort_secs),
            ]);
        }
        print!("{}", table.render());
    }

    let json = render_json(
        entry.name(),
        entry.paper_ref(),
        scale,
        seeds,
        &attacked_label,
        &attacked,
        baseline.as_ref(),
        phases,
    );
    let path = format!("results/scenario-{}.json", entry.name());
    if std::fs::create_dir_all("results").is_ok() && std::fs::write(&path, &json).is_ok() {
        println!("\nwrote {path}");
    }
    if let (Some(merged), Some(sp)) = (&obs.profile, &sp) {
        // Batch workers have already absorbed theirs into the merge target.
        merged.lock().unwrap().absorb(&sp.borrow());
    }
    obs.finish(entry.name());
    if args.iter().any(|a| a == "--json") {
        println!("{json}");
    }
    if let (true, Some(r)) = (mem, &report_run) {
        mem_report(seeds[0], &r.occupancy);
    }
}

/// Regenerates the selected figures: banner, table and closing line on
/// stdout, `results/<id>.{txt,csv}` on disk. Operands other than
/// `--scale <s>` must be figure ids (or `all`); a failed write exits 1
/// naming the path.
fn figure(args: &[String], scale: Scale) {
    let mut ids = args.to_vec();
    if let Some(i) = ids.iter().position(|a| a == "--scale") {
        ids.drain(i..(i + 2).min(ids.len()));
    }
    let selected = figures::select(&ids).unwrap_or_else(|e| fail(&e));
    let sweeps = Sweeps::new(scale);
    for figure in selected {
        println!("{}", figure.banner(scale));
        let rendered = figure.render(&sweeps);
        println!("{}", rendered.table);
        if let Err(e) = save_results(figure.id, &rendered.table, &rendered.csv) {
            die(&format!("figure {}", figure.id), &format!("writing {e}"));
        }
        if let Some(footer) = rendered.footer {
            println!("{footer}");
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_string())
}

fn phase_json(p: &PhaseSummary) -> String {
    format!(
        "{{\"label\": \"{}\", \"start_ms\": {}, \"end_ms\": {}, \
         \"access_failure_probability\": {}, \"successful_polls\": {}, \
         \"failed_polls\": {}, \"alarms\": {}, \"loyal_effort_secs\": {}, \
         \"adversary_effort_secs\": {}}}",
        p.label,
        p.start.as_millis(),
        p.end.as_millis(),
        json_f64(p.access_failure_probability),
        p.successful_polls,
        p.failed_polls,
        p.alarms,
        json_f64(p.loyal_effort_secs),
        json_f64(p.adversary_effort_secs),
    )
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    name: &str,
    paper_ref: &str,
    scale: Scale,
    seeds: &[u64],
    attack_label: &str,
    attacked: &Summary,
    baseline: Option<&Summary>,
    phases: &[PhaseSummary],
) -> String {
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let phase_list: Vec<String> = phases.iter().map(phase_json).collect();
    // Summaries use the canonical field order shared with the sweep reports.
    let base_json = baseline
        .map(sweep::summary_to_json)
        .unwrap_or_else(|| "null".to_string());
    let ratios = match baseline {
        Some(b) => format!(
            "{{\"delay_ratio\": {}, \"coefficient_of_friction\": {}, \"cost_ratio\": {}}}",
            json_opt(attacked.delay_ratio(b)),
            json_opt(attacked.coefficient_of_friction(b)),
            json_opt(attacked.cost_ratio()),
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"scenario\": \"{name}\",\n  \"paper_ref\": \"{paper_ref}\",\n  \
         \"scale\": \"{}\",\n  \"seeds\": [{}],\n  \"attack\": \"{attack_label}\",\n  \
         \"summary\": {},\n  \"baseline\": {base_json},\n  \"ratios\": {ratios},\n  \
         \"phases\": [{}]\n}}\n",
        scale.label(),
        seed_list.join(", "),
        sweep::summary_to_json(attacked),
        phase_list.join(", "),
    )
}
