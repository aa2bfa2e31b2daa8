//! Sweep planning: the report/checkpoint model and the in-process
//! orchestrator.
//!
//! Three properties make sweeps safe to parallelize and interrupt at
//! production scale:
//!
//! - **thread-count invariance** — seeds run on `runner::par_map`'s
//!   worker pool in whatever order the workers claim them, but the report
//!   keeps results by seed and the merge reduces in seed order, so the
//!   rendered report is byte-identical for `--threads 1` and
//!   `--threads 8`;
//! - **resumable checkpoints** — with a checkpoint path, the partial
//!   report is rewritten (atomically and durably, see
//!   [`write_checkpoint`]) as each seed completes; rerunning the same
//!   sweep loads it, skips the already-finished seeds, and produces a
//!   final report byte-identical to an uninterrupted run (summaries
//!   round-trip exactly: shortest-repr float formatting parses back to
//!   the same bits);
//! - **streaming memory** — each seed's run keeps fixed-size metric
//!   sketches (see `lockss-metrics::streaming`), so sweeping a 10k-peer
//!   world costs one world at a time per worker, not a buffered history.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lockss_metrics::Summary;
use lockss_obs::{proc_status_kb, unix_ms_now, Heartbeat};
use lockss_sim::json::{
    self,
    Layout::{Inline, Lines},
    Writer,
};
use lockss_sim::Duration;

use lockss_trace::TraceMeta;

use super::shard::{CrashHook, ShardTag};
use crate::obs::{heartbeat_path, ObsSession, HEARTBEAT_INTERVAL};
use crate::runner::{par_map, run, workers, RunOptions};
use crate::scenario::Scenario;

/// The checkpoint/report format tag. Any file carrying a different tag
/// was written by a different grammar version and is rejected by both
/// [`SweepReport::from_json`] and `sweep merge`.
pub const FORMAT: &str = "lockss-sweep-v1";

// ---------------------------------------------------------------------
// Report model.
// ---------------------------------------------------------------------

/// The (possibly partial) outcome of one sweep — a whole campaign, or
/// one shard of it when `shard` is set.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// Registered scenario name.
    pub scenario: String,
    /// Scale label the scenario was built at.
    pub scale: String,
    /// The shard topology tag, when this report covers one shard of a
    /// larger campaign rather than the whole seed range.
    pub shard: Option<ShardTag>,
    /// Every seed this report was asked to run, ascending.
    pub seeds: Vec<u64>,
    /// Finished seeds with their summaries, ascending by seed.
    pub completed: Vec<(u64, Summary)>,
}

impl SweepReport {
    /// An empty report for a planned single-process sweep.
    pub fn new(scenario: &str, scale: &str, mut seeds: Vec<u64>) -> SweepReport {
        seeds.sort_unstable();
        seeds.dedup();
        SweepReport {
            scenario: scenario.to_string(),
            scale: scale.to_string(),
            shard: None,
            seeds,
            completed: Vec::new(),
        }
    }

    /// An empty report for one shard of a campaign: the seed list is the
    /// shard's own slice, computed from the topology tag.
    pub fn new_shard(scenario: &str, scale: &str, shard: ShardTag) -> SweepReport {
        let mut report = SweepReport::new(scenario, scale, shard.seeds());
        report.shard = Some(shard);
        report
    }

    /// True once every requested seed has a summary.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.seeds.len()
    }

    /// The mean summary over completed seeds, reduced in ascending seed
    /// order (float reductions are order-sensitive; a fixed order is what
    /// keeps the merge byte-deterministic). `None` while nothing finished.
    pub fn merged(&self) -> Option<Summary> {
        if self.completed.is_empty() {
            return None;
        }
        let runs: Vec<Summary> = self.completed.iter().map(|(_, s)| s.clone()).collect();
        Some(Summary::mean_of(&runs))
    }

    /// Records one finished seed, keeping `completed` sorted by seed.
    /// Re-recording a seed replaces its summary.
    pub fn record(&mut self, seed: u64, summary: Summary) {
        match self.completed.binary_search_by_key(&seed, |(s, _)| *s) {
            Ok(i) => self.completed[i].1 = summary,
            Err(i) => self.completed.insert(i, (seed, summary)),
        }
    }

    // -- serialization ------------------------------------------------

    /// Renders the canonical JSON form: fixed field order, ascending
    /// seeds, shortest-round-trip floats. Byte-deterministic for a given
    /// logical content — which is what lets `sweep merge` promise a
    /// merged report byte-identical to a single-process run.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Lines)
            .field("format", FORMAT)
            .field("sweep", &self.scenario)
            .field("scale", &self.scale)
            .field_opt("shard", self.shard.as_ref(), ShardTag::write_json)
            .key("seeds")
            .list(&self.seeds)
            .key("completed")
            .array(Lines);
        for (seed, s) in &self.completed {
            w.object(Inline).field("seed", seed).key("summary");
            write_summary(s, &mut w);
            w.end();
        }
        w.end()
            .field_opt("merged", self.merged().as_ref(), write_summary)
            .end()
            .finish()
            + "\n"
    }

    /// Parses a report previously written by [`SweepReport::to_json`].
    /// A missing or foreign `format` tag is a hard error: the file was
    /// written by a different grammar version and its summaries cannot be
    /// trusted to round-trip.
    pub fn from_json(text: &str) -> Result<SweepReport, String> {
        let value = json::parse(text).map_err(|e| format!("not a sweep checkpoint: {e}"))?;
        let obj = value.as_object("report")?;
        match json::get_opt(obj, "format") {
            None => {
                return Err(format!(
                    "missing 'format' tag (a pre-fabric checkpoint or a foreign file); \
                     this binary reads '{FORMAT}'"
                ))
            }
            Some(v) => {
                let found = v.as_str("format")?;
                if found != FORMAT {
                    return Err(format!(
                        "checkpoint format '{found}' was written by a different grammar \
                         version; this binary reads '{FORMAT}'"
                    ));
                }
            }
        }
        let scenario = json::get(obj, "sweep")?.as_str("sweep")?.to_string();
        let scale = json::get(obj, "scale")?.as_str("scale")?.to_string();
        let seeds = json::get(obj, "seeds")?.as_u64_array("seeds")?;
        let mut report = SweepReport::new(&scenario, &scale, seeds);
        report.shard = match json::get_opt(obj, "shard") {
            Some(v) => Some(ShardTag::from_json(v)?),
            None => None,
        };
        for row in json::get(obj, "completed")?.as_array("completed")? {
            let row = row.as_object("completed row")?;
            let seed = json::get(row, "seed")?.as_u64("seed")?;
            let summary = summary_from_json(json::get(row, "summary")?)?;
            report.record(seed, summary);
        }
        Ok(report)
    }
}

/// One summary as an inline object, in the canonical JSON field order
/// shared with the `lockss-sim` scenario reports.
pub fn summary_to_json(s: &Summary) -> String {
    let mut w = Writer::new();
    write_summary(s, &mut w);
    w.finish()
}

/// Writes [`summary_to_json`]'s object as the next value of `w`.
pub fn write_summary(s: &Summary, w: &mut Writer) {
    let ms = |d: Option<Duration>| d.map(Duration::as_millis);
    w.object(Inline)
        .field("access_failure_probability", s.access_failure_probability)
        .field("mean_gap_ms", ms(s.mean_time_between_successes))
        .field("gap_p50_ms", ms(s.gap_p50))
        .field("gap_p90_ms", ms(s.gap_p90))
        .field("successful_polls", s.successful_polls)
        .field("failed_polls", s.failed_polls)
        .field("alarms", s.alarms)
        .field("loyal_effort_secs", s.loyal_effort_secs)
        .field("adversary_effort_secs", s.adversary_effort_secs)
        .end();
}

/// Parses a summary written by [`summary_to_json`]. Floats round-trip
/// exactly (shortest-repr formatting), which is what makes
/// resume-equals-uninterrupted a byte-level guarantee.
pub fn summary_from_json(v: &json::Value) -> Result<Summary, String> {
    let obj = v.as_object("summary")?;
    let opt_ms = |key: &str| -> Result<Option<Duration>, String> {
        let v = json::get(obj, key)?;
        if v.is_null() {
            Ok(None)
        } else {
            Ok(Some(Duration::from_millis(v.as_u64(key)?)))
        }
    };
    Ok(Summary {
        access_failure_probability: json::get(obj, "access_failure_probability")?
            .as_f64("access_failure_probability")?,
        mean_time_between_successes: opt_ms("mean_gap_ms")?,
        gap_p50: opt_ms("gap_p50_ms")?,
        gap_p90: opt_ms("gap_p90_ms")?,
        successful_polls: json::get(obj, "successful_polls")?.as_u64("successful_polls")?,
        failed_polls: json::get(obj, "failed_polls")?.as_u64("failed_polls")?,
        alarms: json::get(obj, "alarms")?.as_u64("alarms")?,
        loyal_effort_secs: json::get(obj, "loyal_effort_secs")?.as_f64("loyal_effort_secs")?,
        adversary_effort_secs: json::get(obj, "adversary_effort_secs")?
            .as_f64("adversary_effort_secs")?,
    })
}

// ---------------------------------------------------------------------
// Orchestration.
// ---------------------------------------------------------------------

/// The most seeds one campaign may name. Seed lists are materialised
/// (checkpoints, shard tags and the CLI's values all hold every seed), so
/// the bound is checked before a range is expanded.
pub const MAX_SEEDS: u64 = 1_000_000;

/// Parses a `--seeds` argument: either `A..B` (inclusive) or a bare count
/// `K` meaning `1..=K`, naming at most [`MAX_SEEDS`] seeds. An error says
/// what the argument should have been.
pub fn parse_seed_range(arg: &str) -> Result<Vec<u64>, String> {
    let parse = |s: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| "seed numbers".to_string())
    };
    let (a, b) = match arg.split_once("..") {
        Some((a, b)) => (parse(a)?, parse(b)?),
        None => (1, parse(arg)?),
    };
    match b.checked_sub(a) {
        None if arg.contains("..") => Err("A..B with A <= B".into()),
        None => Err("at least one seed".into()),
        Some(span) if span >= MAX_SEEDS => Err(format!("at most {MAX_SEEDS} seeds")),
        Some(_) => Ok((a..=b).collect()),
    }
}

/// Where a sweep of `scenario` keeps its checkpoint and report unless told
/// otherwise: `results/sweep-<name>.json` for the whole campaign (also
/// `sweep merge`'s output), `results/sweep-<name>-shard-<i>of<n>.json`
/// for shard `(i, n)` (what a jobfile's merge line names).
pub fn report_path(scenario: &str, shard: Option<(u64, u64)>) -> PathBuf {
    PathBuf::from(match shard {
        Some((index, count)) => format!("results/sweep-{scenario}-shard-{index}of{count}.json"),
        None => format!("results/sweep-{scenario}.json"),
    })
}

/// Loads the resumable state from `checkpoint`, if it exists and matches
/// the planned sweep (scenario, scale, and — for shard runs — the exact
/// shard topology); a mismatched, truncated, or otherwise unreadable file
/// is ignored rather than trusted, so a torn write surfaced by a crash
/// costs a recompute, never a corrupt resume.
pub fn load_checkpoint(
    checkpoint: &Path,
    scenario: &str,
    scale: &str,
    shard: Option<&ShardTag>,
) -> Option<SweepReport> {
    let text = std::fs::read_to_string(checkpoint).ok()?;
    let report = SweepReport::from_json(&text).ok()?;
    (report.scenario == scenario && report.scale == scale && report.shard.as_ref() == shard)
        .then_some(report)
}

/// Durable atomic checkpoint write: temp file in the same directory,
/// fsync the contents, rename over the target (atomic on POSIX
/// filesystems), then fsync the directory so the rename itself survives
/// a crash. Without the two fsyncs a power cut shortly after the rename
/// can legally surface an *empty* checkpoint — the rename's metadata can
/// reach disk before the temp file's data blocks do.
pub fn write_checkpoint(path: &Path, content: &str) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension("json.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(content.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// How a sweep plan is executed. None of it changes the report's bytes.
#[derive(Default)]
pub struct SweepOptions<'a> {
    /// Worker threads (at least one is used).
    pub threads: usize,
    /// Where the partial report is persisted after every finished seed
    /// and the final report at the end.
    pub checkpoint: Option<&'a Path>,
    /// A prior (partial) report of the same plan: its finished seeds are
    /// reused verbatim, the rest are executed.
    pub resume: Option<SweepReport>,
    /// The session every seed's run reports to; when it has a heartbeat
    /// directory, a monitor thread appends heartbeats while the workers
    /// run.
    pub obs: Option<Arc<ObsSession>>,
    /// A directory for per-seed traces: each *freshly executed* seed also
    /// writes its sealed event trace to
    /// `<record>/trace-<scenario>-s<seed>.bin` (recording never perturbs
    /// the summary, so resume invariance holds). Seeds already present in
    /// `resume` are **not** re-recorded — rerun with `--fresh` to capture
    /// a complete trace set.
    pub record: Option<&'a Path>,
    /// Test-only fault injection ([`CrashHook`]): abort mid-checkpoint-write
    /// after this process's k-th seed.
    pub crash: Option<CrashHook>,
}

/// Runs a single-process (unsharded) sweep of `seeds`, resuming from
/// `resume` and persisting to `checkpoint` when given: [`run_sweep_plan`]
/// over [`SweepReport::new`], unobserved and unrecorded.
pub fn run_sweep(
    scenario: &Scenario,
    name: &str,
    scale: &str,
    seeds: &[u64],
    threads: usize,
    checkpoint: Option<&Path>,
    resume: Option<SweepReport>,
) -> SweepReport {
    let opts = SweepOptions {
        threads,
        checkpoint,
        resume,
        ..SweepOptions::default()
    };
    run_sweep_plan(
        scenario,
        SweepReport::new(name, scale, seeds.to_vec()),
        &opts,
    )
}

/// Runs `plan` — a whole campaign ([`SweepReport::new`]) or one shard of
/// it ([`SweepReport::new_shard`], whose checkpoint carries the topology
/// tag `sweep merge` validates): seeds already finished in `opts.resume`
/// are reused verbatim, the rest are executed across `opts.threads`
/// workers, and the returned report is identical no matter the thread
/// count or how the work was split across interruptions.
pub fn run_sweep_plan(
    scenario: &Scenario,
    mut plan: SweepReport,
    opts: &SweepOptions<'_>,
) -> SweepReport {
    let SweepOptions {
        threads,
        checkpoint,
        record,
        crash,
        ..
    } = *opts;
    let obs = opts.obs.as_ref();
    if let Some(prior) = &opts.resume {
        // Seeds outside the plan are dropped: the checkpoint belonged to
        // a different seed range.
        plan.completed = prior
            .completed
            .iter()
            .filter(|(seed, _)| plan.seeds.contains(seed))
            .cloned()
            .collect();
    }
    let todo: Vec<u64> = plan
        .seeds
        .iter()
        .copied()
        .filter(|s| !plan.completed.iter().any(|(done, _)| done == s))
        .collect();

    // Trace identity is frozen before the plan moves into the lock; the
    // directory is created up front so a bad path warns once, not per seed.
    let record_ctx = record.map(|dir| {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "warning: cannot create trace directory {}: {e}",
                dir.display()
            );
        }
        (dir, plan.scenario.clone(), plan.scale.clone())
    });
    let run_length_ms = scenario.run_length.as_millis();

    let shared = Mutex::new(plan);
    let done_here = AtomicUsize::new(0);
    let last_seed = AtomicU64::new(0);
    let stop_monitor = AtomicBool::new(false);
    std::thread::scope(|outer| {
        // The heartbeat monitor runs beside the workers, not among them:
        // protocol counters advance *during* a seed, so its records show
        // progress even while every worker is deep inside a long run.
        if let Some((o, dir)) = obs.and_then(|o| Some((o, o.heartbeat_dir()?))) {
            let _ = std::fs::create_dir_all(dir);
            let (shared, stop, last_seed) = (&shared, &stop_monitor, &last_seed);
            let polls_at_start = o.core.polls_started.get();
            let started = std::time::Instant::now();
            // Snapshots the live counters into one heartbeat record and
            // appends it. Best-effort: telemetry never fails the sweep.
            let emit = move || {
                let plan = shared
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let shard = plan.shard.as_ref().map(|t| (t.index, t.count));
                let polls = o.core.polls_started.get();
                let elapsed = started.elapsed().as_secs_f64();
                let hb = Heartbeat {
                    unix_ms: unix_ms_now(),
                    scenario: plan.scenario.clone(),
                    scale: plan.scale.clone(),
                    shard: shard.map_or(1, |(i, _)| i as u32),
                    shards: shard.map_or(1, |(_, n)| n as u32),
                    seeds_done: plan.completed.len() as u64,
                    seeds_total: plan.seeds.len() as u64,
                    last_seed: last_seed.load(Ordering::Relaxed),
                    polls,
                    events: o.engine.events_executed.get(),
                    polls_per_sec: if elapsed > 0.0 {
                        (polls - polls_at_start) as f64 / elapsed
                    } else {
                        0.0
                    },
                    vm_rss_kb: proc_status_kb("VmRSS").unwrap_or(0),
                    arena_live: o.engine.events_queued.get(),
                    arena_total: o.engine.arena_total.get(),
                };
                drop(plan);
                let _ = hb.append_to(&heartbeat_path(dir, &hb.scenario, shard));
            };
            outer.spawn(move || {
                emit();
                while !stop.load(Ordering::Relaxed) {
                    let mut slept = std::time::Duration::ZERO;
                    while slept < HEARTBEAT_INTERVAL && !stop.load(Ordering::Relaxed) {
                        let step = std::time::Duration::from_millis(25);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    emit();
                }
                // One closing record so the file always ends with the
                // sweep's final state.
                emit();
            });
        }
        if let Some(o) = obs {
            o.sweep_chunks.add(workers(threads, todo.len()) as u64);
        }
        par_map(&todo, threads, |&seed| {
            let summary = match &record_ctx {
                Some((dir, name, scale)) => {
                    let meta = TraceMeta {
                        scenario: name.clone(),
                        scale: scale.clone(),
                        seed,
                        run_length_ms,
                    };
                    let recorded = RunOptions {
                        obs: obs.cloned(),
                        ..RunOptions::record(&meta)
                    };
                    let out = run(scenario, seed, &recorded);
                    let trace = out.trace.expect("a recorded run seals a trace");
                    let path = dir.join(format!("trace-{name}-s{seed}.bin"));
                    // Best-effort like checkpoints: a failing disk must
                    // not kill the sweep.
                    if let Err(e) = trace.write_to(&path) {
                        eprintln!("warning: trace write to {} failed: {e}", path.display());
                    }
                    out.summary
                }
                None => {
                    let opts = RunOptions {
                        sink: None,
                        obs: obs.cloned(),
                    };
                    run(scenario, seed, &opts).summary
                }
            };
            let mut plan = shared
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            plan.record(seed, summary);
            last_seed.store(seed, Ordering::Relaxed);
            if let Some(o) = obs {
                o.sweep_seeds.inc();
            }
            let done = done_here.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(hook) = &crash {
                // Test-only fault injection: dies here, holding the lock,
                // leaving a torn temp file — the worst-case `kill -9`
                // mid-checkpoint-write.
                hook.maybe_crash(done, checkpoint, &plan.to_json());
            }
            if let Some(path) = checkpoint {
                // Best-effort mid-run persistence; a failing disk must not
                // kill the sweep, but it must not be silent either (the
                // caller re-verifies the final file).
                if let Err(e) = write_checkpoint(path, &plan.to_json()) {
                    eprintln!(
                        "warning: checkpoint write to {} failed: {e}",
                        path.display()
                    );
                }
            }
        });
        stop_monitor.store(true, Ordering::Relaxed);
    });

    let report = shared
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(path) = checkpoint {
        if let Err(e) = write_checkpoint(path, &report.to_json()) {
            eprintln!(
                "warning: final checkpoint write to {} failed: {e}",
                path.display()
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn tiny() -> Scenario {
        let mut s = Scenario::baseline(Scale::Quick, 2);
        s.cfg.n_peers = 25;
        s.run_length = Duration::from_days(120);
        s
    }

    fn summary(seed: u64) -> Summary {
        Summary {
            access_failure_probability: 1.0 / (seed as f64 * 3.0 + 0.1),
            mean_time_between_successes: Some(Duration::from_days(seed)),
            gap_p50: Some(Duration::from_days(seed)),
            gap_p90: seed
                .is_multiple_of(2)
                .then(|| Duration::from_days(2 * seed)),
            successful_polls: 10 * seed,
            failed_polls: seed,
            alarms: 0,
            loyal_effort_secs: 1.5 * seed as f64,
            adversary_effort_secs: 0.0,
        }
    }

    #[test]
    fn seed_range_parsing() {
        assert_eq!(parse_seed_range("1..4").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_seed_range("7..7").unwrap(), vec![7]);
        assert_eq!(parse_seed_range("3").unwrap(), vec![1, 2, 3]);
        assert!(parse_seed_range("4..1").is_err());
        assert!(parse_seed_range("0").is_err());
        assert!(parse_seed_range("x..y").is_err());
        assert_eq!(parse_seed_range("1000000").unwrap().len(), 1_000_000);
        for huge in [
            "1000001",
            "5..2000000000000",
            "18446744073709551615",
            "0..18446744073709551615",
        ] {
            assert_eq!(
                parse_seed_range(huge),
                Err("at most 1000000 seeds".into()),
                "{huge}"
            );
        }
    }

    #[test]
    fn report_json_roundtrips_exactly() {
        let mut report = SweepReport::new("scale-10k-baseline", "quick", vec![1, 2, 3, 4]);
        report.record(3, summary(3));
        report.record(1, summary(1));
        report.record(2, summary(2));
        let text = report.to_json();
        let back = SweepReport::from_json(&text).expect("parses");
        assert_eq!(
            back, report,
            "exact struct round-trip (float bits included)"
        );
        assert_eq!(back.to_json(), text, "byte round-trip");
        assert!(!report.is_complete());
        report.record(4, summary(4));
        assert!(report.is_complete());
    }

    #[test]
    fn shard_report_roundtrips_exactly() {
        let tag = ShardTag::new(2, 3, vec![1, 2, 3, 4, 5, 6, 7]).expect("valid topology");
        let mut report = SweepReport::new_shard("baseline", "quick", tag.clone());
        assert_eq!(report.seeds, tag.seeds(), "seed list is the shard slice");
        for &s in &report.seeds.clone() {
            report.record(s, summary(s));
        }
        let text = report.to_json();
        let back = SweepReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "byte round-trip");
        assert_eq!(back.shard.as_ref(), Some(&tag));
    }

    #[test]
    fn foreign_format_tags_are_rejected() {
        let report = SweepReport::new("x", "quick", vec![1]);
        let text = report.to_json();
        let e = SweepReport::from_json(&text.replace(FORMAT, "lockss-sweep-v0")).unwrap_err();
        assert!(e.contains("different grammar version"), "got: {e}");
        // A pre-fabric checkpoint (no format tag at all) is also refused.
        let stripped = text.replace("  \"format\": \"lockss-sweep-v1\",\n", "");
        let e = SweepReport::from_json(&stripped).unwrap_err();
        assert!(e.contains("missing 'format' tag"), "got: {e}");
    }

    #[test]
    fn record_is_sorted_and_replaces() {
        let mut report = SweepReport::new("x", "quick", vec![5, 1, 3, 1]);
        assert_eq!(report.seeds, vec![1, 3, 5], "sorted, deduped");
        report.record(5, summary(5));
        report.record(1, summary(1));
        assert_eq!(report.completed[0].0, 1);
        assert_eq!(report.completed[1].0, 5);
        report.record(5, summary(2));
        assert_eq!(report.completed.len(), 2);
        assert_eq!(report.completed[1].1, summary(2));
    }

    #[test]
    fn merged_reduces_in_seed_order() {
        let mut a = SweepReport::new("x", "quick", vec![1, 2]);
        a.record(2, summary(2));
        a.record(1, summary(1));
        let mut b = SweepReport::new("x", "quick", vec![1, 2]);
        b.record(1, summary(1));
        b.record(2, summary(2));
        assert_eq!(a.merged(), b.merged(), "completion order is irrelevant");
        assert_eq!(SweepReport::new("x", "quick", vec![1]).merged(), None);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let s = tiny();
        let seeds = [1, 2, 3, 4];
        let one = run_sweep(&s, "tiny", "quick", &seeds, 1, None, None);
        let eight = run_sweep(&s, "tiny", "quick", &seeds, 8, None, None);
        assert_eq!(
            one.to_json(),
            eight.to_json(),
            "reports must be byte-identical"
        );
    }

    #[test]
    fn resume_equals_uninterrupted() {
        let s = tiny();
        let seeds = [1, 2, 3];
        let full = run_sweep(&s, "tiny", "quick", &seeds, 2, None, None);
        // "Interrupted": only seed 2 finished before the crash.
        let partial = run_sweep(&s, "tiny", "quick", &[2], 1, None, None);
        let resumed = run_sweep(&s, "tiny", "quick", &seeds, 2, None, Some(partial));
        assert_eq!(resumed.to_json(), full.to_json());
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lockss-sweep-{}", std::process::id()));
        let path = dir.join("sweep-test.json");
        let s = tiny();
        let report = run_sweep(&s, "tiny", "quick", &[1, 2], 2, Some(&path), None);
        let loaded = load_checkpoint(&path, "tiny", "quick", None).expect("checkpoint exists");
        assert_eq!(loaded, report);
        // A mismatched scenario name is ignored.
        assert!(load_checkpoint(&path, "other", "quick", None).is_none());
        // So is a shard/unsharded mismatch.
        let tag = ShardTag::new(1, 2, vec![1, 2]).unwrap();
        assert!(load_checkpoint(&path, "tiny", "quick", Some(&tag)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the fsync-before-rename fix: the write leaves no
    /// temp residue, survives a pre-existing torn temp file from an
    /// earlier crash, and a torn *target* (what an unsynced rename can
    /// legally surface after power loss) is ignored on resume instead of
    /// trusted.
    #[test]
    fn checkpoint_write_survives_torn_writes() {
        let dir = std::env::temp_dir().join(format!("lockss-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let tmp = path.with_extension("json.tmp");

        let mut report = SweepReport::new("tiny", "quick", vec![1, 2]);
        report.record(1, summary(1));
        let full = report.to_json();

        // A torn temp file left by a crashed writer must not leak into
        // the next write.
        std::fs::write(&tmp, &full[..full.len() / 2]).unwrap();
        write_checkpoint(&path, &full).expect("write succeeds");
        assert!(!tmp.exists(), "temp file renamed away, no residue");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        assert_eq!(
            load_checkpoint(&path, "tiny", "quick", None).expect("loads"),
            report
        );

        // A torn target — truncated mid-document — is a fresh start, not
        // a parse panic and not a corrupt resume.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(load_checkpoint(&path, "tiny", "quick", None).is_none());
        assert!(SweepReport::from_json(&full[..full.len() / 2]).is_err());
        // An *empty* target (the exact artifact the missing fsync could
        // produce) is likewise ignored.
        std::fs::write(&path, "").unwrap();
        assert!(load_checkpoint(&path, "tiny", "quick", None).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_reader_rejects_garbage() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("{} trailing").is_err());
        assert!(json::parse("{\"a\": }").is_err());
        assert!(SweepReport::from_json("{\"sweep\": 3}").is_err());
    }
}
