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
//! cargo run --release --bin lockss-sim -- trace export t.bin --csv timeline.csv
//! cargo run --release --bin lockss-sim -- sweep baseline --record traces/
//! cargo run --release --bin lockss-sim -- sweep baseline --seeds 1..100 --jobfile jobs.txt --shards 4
//! cargo run --release --bin lockss-sim -- figure fig3 fig4 fig5 --scale quick
//! ```
//!
//! What each verb does, its operands and its flags are declared once, in
//! `lockss_experiments::cli`: that table parses and checks argv before
//! anything runs and renders `lockss-sim --help`. This binary dispatches
//! the parsed `Invocation` to the verb's function.

use lockss_experiments::cli::{self, Invocation};
use lockss_experiments::figures::{self, Sweeps};
use lockss_experiments::fuzz::run_fuzz;
use lockss_experiments::obs::ObsSession;
use lockss_experiments::runner::{
    default_threads, replay_once, run, run_batch, Occupancy, RunOptions, Sink,
};
use lockss_experiments::scenario::MAX_RUN_DAYS;
use lockss_experiments::sweep::{
    self, campaign_status, jobfile, load_checkpoint, merge_files, render_status, report_path,
    run_sweep_plan, CrashHook, DispatchPlan, ShardTag, SweepOptions, SweepReport,
};
use lockss_experiments::{
    run_recovery_study, RecoveryStudy, Scale, ScenarioRegistry, ScenarioSpec,
};
use lockss_metrics::table::{ratio, sci};
use lockss_metrics::{PhaseSummary, Summary, Table};
use lockss_obs::{proc_status_kb, unix_ms_now};
use lockss_sim::json::{
    Layout::{Inline, Lines},
    Writer,
};
use lockss_trace::{
    diff_traces_threaded, export_csv, trace_stats_threaded, AggregateStats, Trace, TraceMeta,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let inv = cli::parse(&argv).unwrap_or_else(|misuse| match misuse.problem {
        None => {
            print!("{}", misuse.usage);
            std::process::exit(0)
        }
        Some(problem) => {
            eprint!("lockss-sim: {problem}\n\n{}", misuse.usage);
            std::process::exit(2)
        }
    });
    let registry = ScenarioRegistry::standard();
    let (ops, scale) = (&inv.operands, inv.scale);
    let threads = inv
        .num("--threads")
        .map_or_else(default_threads, |n| n as usize);
    match inv.verb.path {
        "list" if inv.switch("--names") => {
            for name in registry.names() {
                println!("{name}");
            }
        }
        "list" => list(&registry, scale),
        "describe" => describe(&registry, &ops[0], scale),
        "run" => {
            let spec = match inv.text("--file") {
                Some(path) => read_spec(path).unwrap_or_else(|e| fail(&format!("{path}: {e}"))),
                None => resolve(&registry, &ops[0]).clone(),
            };
            run_cmd(&spec, &inv);
        }
        "figure" => figure(ops, scale),
        "validate" => validate(ops),
        "fuzz" => {
            let seeds = inv
                .nums("--seeds")
                .map_or((1..=50).collect(), <[u64]>::to_vec);
            fuzz(&seeds, inv.text("--out").unwrap_or("results/fuzz"));
        }
        "sweep" => sweep_cmd(&registry, &ops[0], &inv, threads),
        "sweep merge" => sweep_merge(&inv),
        "sweep status" => {
            let dir = Path::new(&ops[0]);
            let telemetry = inv.text("--telemetry").map_or(dir, Path::new);
            let statuses =
                campaign_status(dir, telemetry).unwrap_or_else(|e| die("sweep status", &e));
            print!("{}", render_status(&statuses, unix_ms_now()));
        }
        "sweep recovery" => sweep_recovery(&inv, threads),
        "replay" => replay(&registry, &ops[0], inv.num("--seed")),
        "bench diff" => bench_diff(&inv),
        "trace diff" => {
            let diff = diff_traces_threaded(&load_trace(&ops[0]), &load_trace(&ops[1]), threads)
                .unwrap_or_else(|e| fail(&format!("diffing: {e}")));
            print!("{diff}");
        }
        "trace stats" => {
            let json = inv.switch("--json");
            let stats_of = |path: &String| {
                trace_stats_threaded(&load_trace(path), threads)
                    .unwrap_or_else(|e| fail(&format!("stats: {path}: {e}")))
            };
            // One trace prints its own timelines, several an aggregate.
            match (ops.as_slice(), json) {
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
        "trace export" => {
            let bucket_days = inv.num("--bucket-days").unwrap_or(1);
            let csv = export_csv(&load_trace(&ops[0]), threads, bucket_days)
                .unwrap_or_else(|e| fail(&format!("exporting: {e}")));
            match inv.text("--csv") {
                Some(out) => {
                    write_file(out, &csv);
                    println!("wrote {out} ({} rows)", csv.lines().count() - 1);
                }
                None => print!("{csv}"),
            }
        }
        path => unreachable!("cli::VERBS names '{path}', which main does not dispatch"),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("lockss-sim: {msg}");
    std::process::exit(2);
}

/// A `verb` that failed on its *inputs or outputs* — files, shard
/// topology — exits 1, distinct from exit 2 (CLI misuse).
fn die(verb: &str, msg: &str) -> ! {
    eprintln!("lockss-sim: {verb}: {msg}");
    std::process::exit(1);
}

/// Unwraps the outcome of writing `path`. An output that cannot be written
/// is an I/O failure: exit 1, naming the path.
fn written<T>(path: impl std::fmt::Display, outcome: Result<T, impl std::fmt::Display>) -> T {
    outcome.unwrap_or_else(|e| {
        eprintln!("lockss-sim: writing {path}: {e}");
        std::process::exit(1)
    })
}

/// Writes `content` to `path`, creating its directory first; a failure
/// exits 1 naming the path (see [`written`]).
fn write_file(path: &str, content: impl AsRef<[u8]>) {
    if let Some(dir) = Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    written(path, std::fs::write(path, content));
}

/// Reads and decodes a scenario file; decoding is the one check, and its
/// errors carry line/field context.
fn read_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    ScenarioSpec::from_json(&text).map_err(|e| e.to_string())
}

/// Checks each scenario file, printing one line per file. Exits 1 if any
/// file fails.
fn validate(paths: &[String]) {
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
        write_file(&path, f.minimized.to_json());
        println!(
            "seed {}: {} -> reproducer {path} (re-run with `lockss-sim run --file {path} \
             --scale quick --seed {}`)",
            f.gen_seed, f.violation, f.run_seed
        );
    }
    std::process::exit(1);
}

/// Compares a baseline bench report against one or more new reports
/// (merged in argument order) and prints each line's median move and
/// noise band. With `--gate`, exits 1 if a gated line slowed beyond its
/// band or is missing from the new reports
/// ([`lockss_bench::diff::DiffReport::gate_failures`]).
fn bench_diff(inv: &Invocation) {
    use lockss_bench::{diff, fmt_ns};

    let read = |path: &String| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        diff::parse_report(&text).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")))
    };
    let base = read(&inv.operands[0]);
    let new: Vec<_> = inv.operands[1..].iter().flat_map(read).collect();
    let report = diff::diff_benches(&base, &new);
    let mut table = Table::new(vec!["benchmark", "baseline", "new", "delta", "band", ""]);
    for d in &report.deltas {
        table.row(vec![
            d.name.clone(),
            fmt_ns(d.base_ns),
            fmt_ns(d.new_ns),
            format!("{:+.1}%", (d.ratio - 1.0) * 100.0),
            format!("±{:.0}%", d.band * 100.0),
            d.mark().to_string(),
        ]);
    }
    print!("{}", table.render());
    for name in &report.missing {
        println!("missing from new report: {name}");
    }
    for name in &report.added {
        println!("new benchmark (no baseline): {name}");
    }
    if inv.switch("--gate") {
        let failures = report.gate_failures();
        for failure in &failures {
            eprintln!("GATE: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("gate passed: no gated bench slowed beyond its noise band");
    }
}

/// The observability session a `run` or `sweep` invocation asked for, if
/// any: span profiling, a registry snapshot, and (sweeps only) heartbeats.
/// Strictly out-of-band — a session never changes a summary, a checkpoint
/// or a trace.
fn obs_session(inv: &Invocation) -> Option<Arc<ObsSession>> {
    let profile = inv.switch("--profile");
    let heartbeats = inv.text("--telemetry");
    if !profile && heartbeats.is_none() && !inv.switch("--metrics-out") {
        return None;
    }
    let mut session = ObsSession::new();
    if profile {
        session = session.profiled();
    }
    if let Some(dir) = heartbeats {
        session = session.with_heartbeats(Path::new(dir));
    }
    Some(Arc::new(session))
}

/// Writes what the session was asked for: the merged span tree to
/// `results/profile-<name>.json`, the registry as JSON at `--metrics-out`
/// plus Prometheus text beside it.
fn write_obs(obs: Option<&Arc<ObsSession>>, inv: &Invocation, name: &str) {
    let Some(obs) = obs else {
        return;
    };
    if let Some(profile) = obs.profile_json(name) {
        let path = format!("results/profile-{name}.json");
        write_file(&path, profile);
        println!("wrote {path}");
    }
    if let Some(out) = inv.text("--metrics-out") {
        let prom = written(out, obs.write_metrics(Path::new(out)));
        println!("wrote {out} and {}", prom.display());
    }
}

/// Runs the post-compromise recovery threshold study: one row per
/// mobile-takeover concurrency budget, reporting time-to-heal quantiles
/// and a heals/data-loss verdict. Byte-deterministic for any --threads.
fn sweep_recovery(inv: &Invocation, threads: usize) {
    let mut study = RecoveryStudy::default();
    if let Some(budgets) = inv.nums("--budgets") {
        let budget = |&b: &u64| u32::try_from(b).expect("cli checks budgets fit a u32");
        study.budgets = budgets.iter().map(budget).collect();
    }
    if let Some(seeds) = inv.nums("--seeds") {
        study.seeds = seeds.to_vec();
    }
    for (flag, slot) in [
        ("--attack-days", &mut study.attack_days),
        ("--heal-window", &mut study.heal_window_days),
        ("--period", &mut study.period_days),
    ] {
        if let Some(days) = inv.num(flag) {
            *slot = days;
        }
    }
    // Each point watches its world until the heal window closes.
    let days = study.attack_days + study.heal_window_days;
    if days > MAX_RUN_DAYS {
        fail(&format!(
            "--attack-days plus --heal-window is {days} days, past the last day a \
             known-peers entry can stamp (at most {MAX_RUN_DAYS} days)"
        ));
    }
    let out = inv
        .text("--out")
        .unwrap_or("results/recovery-threshold.txt");
    let rendered = run_recovery_study(&study, threads).render();
    print!("{rendered}");
    write_file(out, &rendered);
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
fn sweep_cmd(registry: &ScenarioRegistry, name: &str, inv: &Invocation, threads: usize) {
    if let Some(path) = inv.text("--jobfile") {
        return sweep_jobfile(registry, name, inv, path);
    }
    if inv.switch("--shards") {
        fail(
            "sweep: --shards sizes a --jobfile; give --jobfile <path>, \
             or run one shard with --shard i/N",
        );
    }
    let crash = CrashHook::from_env().unwrap_or_else(|e| fail(&e));
    let scale = inv.scale;
    let seeds = campaign_seeds(inv);
    let shard = inv
        .nums("--shard")
        .map(|shard| ShardTag::new(shard[0], shard[1], seeds.clone()).unwrap_or_else(|e| fail(&e)));
    let obs = obs_session(inv);
    let record = inv.text("--record").map(Path::new);
    let spec = resolve(registry, name);
    let scenario = spec.build(scale);
    let path = inv.text("--checkpoint").map_or_else(
        || report_path(&spec.name, shard.as_ref().map(|t| (t.index, t.count))),
        PathBuf::from,
    );
    // --fresh ignores any existing checkpoint: without it, a rerun after a
    // code change would replay the stale per-seed summaries verbatim.
    let resume = if inv.switch("--fresh") {
        None
    } else {
        load_checkpoint(&path, &spec.name, scale.label(), shard.as_ref())
    };
    let done_before = resume.as_ref().map(|r| r.completed.len()).unwrap_or(0);
    let shard_seeds = shard.as_ref().map(ShardTag::seeds);
    let my_seeds: &[u64] = shard_seeds.as_deref().unwrap_or(&seeds);
    println!(
        "sweeping '{}' at scale '{}': {} seed(s){} on {} thread(s){}",
        spec.name,
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
    if let Some(dir) = record {
        println!(
            "recording per-seed traces under {} (resumed seeds are not re-recorded)",
            dir.display()
        );
    }
    let plan = match shard {
        Some(tag) => SweepReport::new_shard(&spec.name, scale.label(), tag),
        None => SweepReport::new(&spec.name, scale.label(), seeds),
    };
    let opts = SweepOptions {
        threads,
        checkpoint: Some(&path),
        resume,
        obs: obs.clone(),
        record,
        crash,
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
    confirm_written("sweep", &path, &report.to_json());
    println!("wrote {}", path.display());
    if let Some(tag) = &report.shard {
        println!(
            "shard {} complete; reassemble the campaign with: \
             lockss-sim sweep merge <all {} shard checkpoints>",
            tag.label(),
            tag.count
        );
    }
    write_obs(obs.as_ref(), inv, &spec.name);
    if inv.switch("--json") {
        print!("{}", report.to_json());
    }
    if inv.switch("--mem-report") {
        // One representative run: a sweep keeps no world around.
        let seed = report.seeds.first().copied().unwrap_or(1);
        mem_report(
            seed,
            &run(&scenario, seed, &RunOptions::default()).occupancy,
        );
    }
}

/// The `--seeds` campaign; without one, the scale's seed count.
fn campaign_seeds(inv: &Invocation) -> Vec<u64> {
    let scale_seeds = || (1..=inv.scale.seeds()).collect();
    inv.nums("--seeds")
        .map_or_else(scale_seeds, <[u64]>::to_vec)
}

/// Validates and reassembles shard checkpoints into the campaign report.
/// Every topology violation — overlapping or missing seed ranges,
/// mismatched scenario/scale tags, truncated files, a foreign format
/// version, duplicate shard submissions — is a distinct diagnostic and
/// exit 1. On success the merged report is byte-identical to what a
/// single-process sweep of the whole seed range writes.
fn sweep_merge(inv: &Invocation) {
    let files: Vec<PathBuf> = inv.operands.iter().map(PathBuf::from).collect();
    let report = merge_files(&files).unwrap_or_else(|e| die("sweep merge", &e));
    let path = inv
        .text("--out")
        .map_or_else(|| report_path(&report.scenario, None), PathBuf::from);
    let rendered = report.to_json();
    written(path.display(), sweep::write_checkpoint(&path, &rendered));
    confirm_written("sweep merge", &path, &rendered);
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
    if inv.switch("--json") {
        print!("{rendered}");
    }
}

/// A report claims persistence only after re-reading the file: a full
/// disk or an unwritable results/ must fail loudly (exit 1), not lose a
/// multi-hour campaign silently.
fn confirm_written(verb: &str, path: &Path, rendered: &str) {
    match std::fs::read_to_string(path) {
        Ok(on_disk) if on_disk == rendered => {}
        _ => die(
            verb,
            &format!(
                "the report at {} is missing or stale after writing it",
                path.display()
            ),
        ),
    }
}

/// `sweep <name> --jobfile <path>`: writes one worker line per shard —
/// this invocation with `--shard i/N` in place of `--jobfile`/`--shards` —
/// and the `sweep merge` line over their default checkpoints, and runs
/// nothing. Whatever executes the lines (`xargs -P`, a scheduler, ssh)
/// reruns a failed one; its checkpoint resumes it.
fn sweep_jobfile(registry: &ScenarioRegistry, name: &str, inv: &Invocation, path: &str) {
    for (flag, why) in [
        ("--shard", "each line runs its own shard"),
        (
            "--checkpoint",
            "each line writes its own shard's default checkpoint, which the merge line names",
        ),
        (
            "--profile",
            "shards run in one directory would overwrite one another's profile",
        ),
        (
            "--metrics-out",
            "shards run in one directory would overwrite one another's metrics file",
        ),
    ] {
        if inv.switch(flag) {
            fail(&format!("sweep: --jobfile cannot take {flag}: {why}"));
        }
    }
    let spec = resolve(registry, name);
    let plan = DispatchPlan {
        scenario: spec.name.clone(),
        scale: inv.scale.label().to_string(),
        campaign: campaign_seeds(inv),
        shards: inv.num("--shards").unwrap_or(default_threads() as u64),
        flags: inv.flags_except(&["--jobfile", "--shards"]),
    };
    let bin = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let text = jobfile(&plan, &bin).unwrap_or_else(|e| fail(&e));
    write_file(path, &text);
    println!(
        "wrote {path}: {} shard command(s) + 1 merge for '{}' ({} seed(s), scale '{}')",
        plan.shards,
        plan.scenario,
        plan.campaign.len(),
        plan.scale
    );
}

/// Prints the process's peak RSS plus the event-queue and peer-table
/// occupancy one run of `seed` ended with: entry counts, then each table's
/// approximate bytes (capacity × entry size) and their sum.
fn mem_report(seed: u64, occupancy: &Occupancy) {
    let Occupancy {
        events_executed,
        events_queued,
        events_high_water,
        queue_bytes,
        table,
    } = occupancy;
    let peak_kb = proc_status_kb("VmHWM");
    let peak_rss = peak_kb
        .map(|kb| format!("{:.1} MiB", kb as f64 / 1024.0))
        .unwrap_or_else(|| "unavailable on this platform".into());
    println!("\nmemory report (seed {seed}):");
    println!("  peak RSS                  {peak_rss}");
    println!(
        "  event queue               {events_queued} pending / {events_high_water} high-water events"
    );
    println!(
        "  events                    {events_executed} executed, {events_queued} queued at horizon"
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

    let kib = |bytes: usize| bytes as f64 / 1024.0;
    let row = |label: &str, bytes: usize, per: Option<(usize, &str)>| {
        let note = per.map_or(String::new(), |(n, unit)| {
            format!(" ({} B per {unit})", bytes / n.max(1))
        });
        println!("    {label:<24}{:>10.1} KiB{note}", kib(bytes));
        bytes
    };
    let cells = table.peers * table.aus_per_peer;
    println!("  bytes, approximate (capacity x entry size, hash tables by bucket):");
    let sum = row("per-AU cells", table.cell_bytes, Some((cells, "cell")))
        + row("reputation entries", table.known_bytes, None)
        + row(
            "admission stamps+intros",
            table.admission_bytes,
            Some((cells, "cell")),
        )
        + row("reference lists", table.reflist_bytes, None)
        + row("live polls", table.poll_bytes, None)
        + row("voter-session tables", table.voter_session_bytes, None)
        + row(
            "schedules + ledgers",
            table.schedule_ledger_bytes,
            Some((table.peers, "peer")),
        )
        + row("RNG column", table.rng_bytes, Some((table.peers, "peer")))
        + row(
            "other peer columns",
            table.peer_column_bytes,
            Some((table.peers, "peer")),
        )
        + row(
            "event queue",
            *queue_bytes,
            Some((*events_high_water, "high-water event")),
        );
    println!(
        "    {:<24}{:>10.1} KiB (in the hash-table rows above)",
        "of which control bytes",
        kib(table.hash_control_bytes)
    );
    let share = peak_kb.map_or(String::new(), |kb| {
        format!(" ({:.0}% attributed)", 100.0 * kib(sum) / kb as f64)
    });
    println!(
        "    {:<24}{:>10.1} KiB of {peak_rss} peak RSS{share}",
        "sum",
        kib(sum)
    );
}

fn load_trace(path: &str) -> Trace {
    Trace::read_from(Path::new(path)).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
}

/// Re-drives a recorded trace's scenario and verifies equivalence. Exits 0
/// on zero divergence, 1 with the first divergence otherwise.
fn replay(registry: &ScenarioRegistry, path: &str, seed_override: Option<u64>) {
    let trace = load_trace(path);
    let meta = trace
        .meta()
        .unwrap_or_else(|e| fail(&format!("header: {e}")));
    let spec = registry.get(&meta.scenario).unwrap_or_else(|| {
        fail(&format!(
            "trace records scenario '{}', which is not in this build's registry",
            meta.scenario
        ))
    });
    let scale = Scale::parse(&meta.scale).unwrap_or_else(|e| fail(&format!("trace header: {e}")));
    let scenario = spec.build(scale);
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

fn resolve<'r>(registry: &'r ScenarioRegistry, name: &str) -> &'r ScenarioSpec {
    let unknown = || {
        fail(&format!(
            "unknown scenario '{name}'; `lockss-sim list` shows the registry"
        ))
    };
    registry.get(name).unwrap_or_else(unknown)
}

fn list(registry: &ScenarioRegistry, scale: Scale) {
    println!(
        "{} registered scenarios (scale '{}'):\n",
        registry.entries().len(),
        scale.label()
    );
    let mut table = Table::new(vec!["scenario", "paper", "description"]);
    for s in registry.entries() {
        table.row(vec![&s.name, &s.paper_ref, &s.description]);
    }
    print!("{}", table.render());
}

fn describe(registry: &ScenarioRegistry, name: &str, scale: Scale) {
    let spec = resolve(registry, name);
    let s = spec.build(scale);
    println!("scenario     {}", spec.name);
    println!("paper        {}", spec.paper_ref);
    println!("description  {}", spec.description);
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
fn run_cmd(spec: &ScenarioSpec, inv: &Invocation) {
    let scale = inv.scale;
    let seeds: Vec<u64> = match inv.num("--seed") {
        Some(seed) => vec![seed],
        None => (1..=inv.num("--seeds").unwrap_or_else(|| scale.seeds())).collect(),
    };
    let seeds = seeds.as_slice();
    let record = inv.text("--record");
    if record.is_some() && seeds.len() != 1 {
        fail("--record captures exactly one run; pass --seed N (or --seeds 1)");
    }
    let obs = obs_session(inv);
    let mem = inv.switch("--mem-report");
    let scenario = spec.build(scale);
    let attacked_label = scenario.attack.label();
    println!(
        "running '{}' at scale '{}' ({} seed(s), {} threads): {}",
        spec.name,
        scale.label(),
        seeds.len(),
        default_threads(),
        attacked_label,
    );

    // Observability is out-of-band: a session never changes a summary, so
    // every measured run below reports to it (when one was requested).
    let plain = RunOptions {
        sink: None,
        obs: obs.clone(),
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
    // first seed runs once more — only when one of the two is wanted, and
    // outside the session, which has already counted that seed.
    let (attacked, baseline, report_run) = if let [seed] = *seeds {
        // `--record` is single-seed (enforced above): the recorded
        // run doubles as the report run, since the sink never perturbs it.
        let opts = match record {
            Some(_) => RunOptions {
                obs: obs.clone(),
                ..RunOptions::record(&TraceMeta {
                    scenario: spec.name.clone(),
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
            write_file(path, trace.as_bytes());
            println!(
                "recorded {} event(s) to {path} (content hash {}; {} block(s) sealed, \
                 simulation blocked {:.3} ms on the sealer)",
                trace.events(),
                trace.content_hash(),
                seal.blocks_sealed,
                seal.blocked_ns as f64 / 1e6
            );
        }
        let b = jobs.get(1).map(|j| run(j, seed, &plain).summary);
        (out.summary.clone(), b, Some(out))
    } else {
        let out = run_batch(&jobs, seeds.len() as u64, default_threads(), obs.as_ref());
        let mut it = out.into_iter();
        let a = it.next().expect("attacked summary");
        let first = (scenario.attack.is_composite() || mem)
            .then(|| run(&scenario, seeds[0], &RunOptions::default()));
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
        spec,
        scale,
        seeds,
        &attacked_label,
        &attacked,
        baseline.as_ref(),
        phases,
    );
    let path = format!("results/scenario-{}.json", spec.name);
    write_file(&path, &json);
    println!("\nwrote {path}");
    write_obs(obs.as_ref(), inv, &spec.name);
    if inv.switch("--json") {
        println!("{json}");
    }
    if let (true, Some(r)) = (mem, &report_run) {
        mem_report(seeds[0], &r.occupancy);
    }
}

/// Regenerates the selected figures: banner, table and closing line on
/// stdout, `results/<id>.{txt,csv}` on disk. Operands must be figure ids
/// (or `all`); a failed write exits 1 naming the path.
fn figure(ids: &[String], scale: Scale) {
    let selected = figures::select(ids).unwrap_or_else(|e| fail(&e));
    let sweeps = Sweeps::new(scale);
    for figure in selected {
        println!("{}", figure.banner(scale));
        let rendered = figure.render(&sweeps);
        println!("{}", rendered.table);
        write_file(&format!("results/{}.txt", figure.id), &rendered.table);
        write_file(&format!("results/{}.csv", figure.id), &rendered.csv);
        if let Some(footer) = rendered.footer {
            println!("{footer}");
        }
    }
}

fn render_json(
    spec: &ScenarioSpec,
    scale: Scale,
    seeds: &[u64],
    attack_label: &str,
    attacked: &Summary,
    baseline: Option<&Summary>,
    phases: &[PhaseSummary],
) -> String {
    // Summaries use the canonical field order shared with the sweep reports.
    let mut w = Writer::new();
    w.object(Lines)
        .field("scenario", &spec.name)
        .field("paper_ref", &spec.paper_ref)
        .field("scale", scale.label())
        .key("seeds")
        .list(seeds)
        .field("attack", attack_label)
        .key("summary");
    sweep::write_summary(attacked, &mut w);
    w.field_opt("baseline", baseline, sweep::write_summary)
        .field_opt("ratios", baseline, |b, w| {
            w.object(Inline)
                .field("delay_ratio", attacked.delay_ratio(b))
                .field(
                    "coefficient_of_friction",
                    attacked.coefficient_of_friction(b),
                )
                .field("cost_ratio", attacked.cost_ratio())
                .end();
        })
        .key("phases")
        .array(Inline);
    for p in phases {
        w.object(Inline)
            .field("label", &p.label)
            .field("start_ms", p.start.as_millis())
            .field("end_ms", p.end.as_millis())
            .field("access_failure_probability", p.access_failure_probability)
            .field("successful_polls", p.successful_polls)
            .field("failed_polls", p.failed_polls)
            .field("alarms", p.alarms)
            .field("loyal_effort_secs", p.loyal_effort_secs)
            .field("adversary_effort_secs", p.adversary_effort_secs)
            .end();
    }
    w.end().end().finish() + "\n"
}
