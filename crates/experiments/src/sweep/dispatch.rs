//! The dispatch driver: fans a campaign's shards out over worker
//! subprocesses and survives any of them dying.
//!
//! Each shard worker is this same binary running
//! `sweep <name> --shard i/N --checkpoint <dir>/...` — the checkpoint
//! *is* the job state, so the failure model is uniform: whether a worker
//! exits non-zero, is `kill -9`ed by an impatient operator, or is
//! preempted by the scheduler, the driver re-dispatches it (after an
//! exponential backoff) and the replacement resumes from whatever the
//! dead worker durably checkpointed. Preemption without process death is
//! caught by **liveness freshness**: with `--telemetry` on, the driver
//! reads each shard's heartbeat file and counts it fresh only while the
//! protocol counters (seeds done, polls opened) advance — polls advance
//! *during* a seed, so a long seed is never mistaken for a stall, and a
//! deadlocked worker whose heartbeat thread still appends records is
//! still caught. Without telemetry it falls back to checkpoint-file
//! mtime (which only moves per finished seed). Either way, a worker
//! stale for `--stall-secs` is presumed stuck, killed, and
//! re-dispatched — the straggler never holds the campaign hostage.
//! Heartbeats also feed per-shard progress lines with an ETA.
//!
//! `--jobfile` writes the per-shard command lines (plus the final merge)
//! to a file instead of executing anything, for fanning shards out over
//! hosts with ssh, a cluster scheduler, or plain GNU parallel; any
//! worker can run anywhere, because the shard topology is derived, not
//! assigned.

use std::io::{BufRead as _, BufReader, Read, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration as StdDuration, Instant, SystemTime};

use lockss_obs::{unix_ms_now, utc_timestamp, Heartbeat};

use super::merge::merge_files;
use super::plan::{write_checkpoint, SweepReport};
use super::shard::ShardTag;
use super::status::last_heartbeat;
use crate::obs::heartbeat_path;

/// Everything a dispatch run needs to know.
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// Registered scenario name.
    pub scenario: String,
    /// Scale label (`quick` / `default` / `paper`).
    pub scale: String,
    /// The `--seeds` argument, verbatim — each worker re-derives its own
    /// slice from it, so the drive and the workers can never disagree.
    pub seeds_arg: String,
    /// The parsed campaign seed list.
    pub campaign: Vec<u64>,
    /// How many shards to cut the campaign into.
    pub shards: u64,
    /// Worker threads per shard subprocess.
    pub threads_per_shard: usize,
    /// Re-dispatches allowed per shard after its first attempt.
    pub retries: u32,
    /// Base backoff before a re-dispatch; doubles per attempt.
    pub backoff_ms: u64,
    /// Liveness-freshness window: a running worker that shows no
    /// progress (heartbeat counters, or checkpoint mtime as fallback)
    /// for this long is killed and re-dispatched. `None` disables
    /// straggler detection.
    pub stall_secs: Option<u64>,
    /// Directory for shard checkpoints and worker logs.
    pub dir: PathBuf,
    /// Where the merged campaign report lands.
    pub out: PathBuf,
    /// Ignore (delete) existing shard checkpoints before starting.
    pub fresh: bool,
    /// Heartbeat telemetry directory, passed through to every worker;
    /// also what the driver's stall detector and progress lines read.
    pub telemetry: Option<PathBuf>,
}

impl DispatchPlan {
    /// The checkpoint path of shard `index` (1-based).
    pub fn shard_checkpoint(&self, index: u64) -> PathBuf {
        self.dir.join(format!(
            "sweep-{}-shard-{index}of{}.json",
            self.scenario, self.shards
        ))
    }

    /// The log file capturing shard `index`'s stdout+stderr across all
    /// its attempts.
    pub fn shard_log(&self, index: u64) -> PathBuf {
        self.dir.join(format!(
            "sweep-{}-shard-{index}of{}.log",
            self.scenario, self.shards
        ))
    }

    /// The argv tail of shard `index`'s worker invocation.
    pub fn shard_args(&self, index: u64) -> Vec<String> {
        let mut args = vec![
            "sweep".into(),
            self.scenario.clone(),
            "--scale".into(),
            self.scale.clone(),
            "--seeds".into(),
            self.seeds_arg.clone(),
            "--shard".into(),
            format!("{index}/{}", self.shards),
            "--threads".into(),
            self.threads_per_shard.to_string(),
            "--checkpoint".into(),
            self.shard_checkpoint(index).display().to_string(),
        ];
        if let Some(dir) = &self.telemetry {
            args.push("--telemetry".into());
            args.push(dir.display().to_string());
        }
        args
    }

    /// The heartbeat file shard `index`'s worker appends to, when
    /// telemetry is on.
    pub fn shard_heartbeat(&self, index: u64) -> Option<PathBuf> {
        self.telemetry
            .as_ref()
            .map(|dir| heartbeat_path(dir, &self.scenario, Some((index, self.shards))))
    }

    /// Validates the topology early (shard count vs campaign size).
    pub fn validate(&self) -> Result<(), String> {
        ShardTag::new(1, self.shards, self.campaign.clone()).map(|_| ())
    }
}

/// Renders the jobfile: one worker command line per shard, then the
/// merge that reassembles them — ready to fan out over hosts.
pub fn jobfile(plan: &DispatchPlan, bin: &Path) -> Result<String, String> {
    plan.validate()?;
    let bin = bin.display();
    let mut lines = vec![format!(
        "# sweep fabric jobfile: '{}' at scale '{}', seeds {}, {} shard(s)\n\
         # run each shard line anywhere (any order, any host with this binary\n\
         # and a shared or collected filesystem), then the merge line.",
        plan.scenario, plan.scale, plan.seeds_arg, plan.shards
    )];
    for index in 1..=plan.shards {
        lines.push(format!("{bin} {}", plan.shard_args(index).join(" ")));
    }
    let checkpoints: Vec<String> = (1..=plan.shards)
        .map(|i| plan.shard_checkpoint(i).display().to_string())
        .collect();
    lines.push(format!(
        "{bin} sweep merge {} --out {}",
        checkpoints.join(" "),
        plan.out.display()
    ));
    lines.push(String::new());
    Ok(lines.join("\n"))
}

/// One shard's lifecycle inside the driver.
enum ShardState {
    /// Waiting to (re-)spawn, not before the given instant.
    Pending { not_before: Instant, attempts: u32 },
    /// A live worker.
    Running {
        child: Child,
        attempts: u32,
        last_fresh: Instant,
        last_mtime: Option<SystemTime>,
        /// Throttles heartbeat-file reads (the loop spins at 25ms).
        last_hb_check: Instant,
        /// Last observed `(seeds_done, polls)`; freshness means these
        /// advanced, not merely that the heartbeat file grew.
        last_progress: Option<(u64, u64)>,
        /// First observed `seeds_done` and when, for the ETA rate.
        progress_base: Option<(u64, Instant)>,
    },
    /// Exited 0; checkpoint validated at merge time.
    Done,
}

/// Runs the whole campaign: spawns one worker per shard, babysits them
/// (retry-with-backoff on any death, kill-and-re-dispatch on checkpoint
/// staleness), then merges the shard checkpoints and writes the final
/// report to `plan.out`. Returns the merged report.
///
/// `log` receives one line per lifecycle event (spawn, exit, retry,
/// stall kill), for the CLI to print.
pub fn dispatch(
    bin: &Path,
    plan: &DispatchPlan,
    log: &mut dyn FnMut(&str),
) -> Result<SweepReport, String> {
    plan.validate()?;
    std::fs::create_dir_all(&plan.dir).map_err(|e| format!("{}: {e}", plan.dir.display()))?;
    if plan.fresh {
        for index in 1..=plan.shards {
            let _ = std::fs::remove_file(plan.shard_checkpoint(index));
            let _ = std::fs::remove_file(plan.shard_log(index));
        }
    }

    let now = Instant::now();
    let mut states: Vec<ShardState> = (1..=plan.shards)
        .map(|_| ShardState::Pending {
            not_before: now,
            attempts: 0,
        })
        .collect();

    let result = babysit(bin, plan, &mut states, log);
    // Whatever happened, leave no orphaned workers behind.
    for state in &mut states {
        if let ShardState::Running { child, .. } = state {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    result?;

    let checkpoints: Vec<PathBuf> = (1..=plan.shards)
        .map(|i| plan.shard_checkpoint(i))
        .collect();
    let report = merge_files(&checkpoints)?;
    let rendered = report.to_json();
    write_checkpoint(&plan.out, &rendered).map_err(|e| format!("{}: {e}", plan.out.display()))?;
    // Trust nothing: the merged campaign report is only claimed written
    // after reading the bytes back.
    match std::fs::read_to_string(&plan.out) {
        Ok(on_disk) if on_disk == rendered => Ok(report),
        _ => Err(format!(
            "merged report at {} is missing or stale after writing it",
            plan.out.display()
        )),
    }
}

/// The monitor loop: drives every shard to `Done` or fails.
fn babysit(
    bin: &Path,
    plan: &DispatchPlan,
    states: &mut [ShardState],
    log: &mut dyn FnMut(&str),
) -> Result<(), String> {
    let stall = plan.stall_secs.map(StdDuration::from_secs);
    loop {
        let mut all_done = true;
        for (i, state) in states.iter_mut().enumerate() {
            let index = i as u64 + 1;
            match state {
                ShardState::Done => {}
                ShardState::Pending {
                    not_before,
                    attempts,
                } => {
                    all_done = false;
                    if Instant::now() >= *not_before {
                        let child = spawn_shard(bin, plan, index, *attempts + 1)?;
                        log(&format!(
                            "shard {index}/{}: worker pid {} started (attempt {})",
                            plan.shards,
                            child.id(),
                            *attempts + 1
                        ));
                        *state = ShardState::Running {
                            child,
                            attempts: *attempts,
                            last_fresh: Instant::now(),
                            last_mtime: None,
                            last_hb_check: Instant::now(),
                            last_progress: None,
                            progress_base: None,
                        };
                    }
                }
                ShardState::Running {
                    child,
                    attempts,
                    last_fresh,
                    last_mtime,
                    last_hb_check,
                    last_progress,
                    progress_base,
                } => {
                    all_done = false;
                    match child.try_wait() {
                        Err(e) => return Err(format!("waiting on shard {index}: {e}")),
                        Ok(Some(status)) if status.success() => {
                            log(&format!("shard {index}/{}: finished", plan.shards));
                            *state = ShardState::Done;
                        }
                        Ok(Some(status)) => {
                            let died = format!(
                                "shard {index}/{}: worker died ({status}); the checkpoint \
                                 keeps its finished seeds",
                                plan.shards
                            );
                            *state = next_attempt(plan, index, *attempts, &died, log)?;
                        }
                        Ok(None) => {
                            // Liveness and progress, throttled to ~4 Hz so
                            // the 25ms loop doesn't hammer the filesystem.
                            if last_hb_check.elapsed() >= StdDuration::from_millis(250) {
                                *last_hb_check = Instant::now();
                                // Preferred signal: heartbeat counters.
                                // Polls advance *during* a seed, so a slow
                                // seed still reads as progress; a wedged
                                // worker's counters freeze even though its
                                // heartbeat thread keeps appending.
                                let hb =
                                    plan.shard_heartbeat(index).and_then(|p| last_heartbeat(&p));
                                if let Some(hb) = hb {
                                    let progress = (hb.seeds_done, hb.polls);
                                    if *last_progress != Some(progress) {
                                        let prev = last_progress.map(|(d, _)| d);
                                        *last_progress = Some(progress);
                                        *last_fresh = Instant::now();
                                        if progress_base.is_none() {
                                            *progress_base = Some((hb.seeds_done, Instant::now()));
                                        }
                                        if prev.is_some_and(|d| d != hb.seeds_done) {
                                            log(&progress_line(plan, index, &hb, progress_base));
                                        }
                                    }
                                }
                                // Fallback signal: checkpoint mtime, which
                                // only moves once per finished seed.
                                let mtime = std::fs::metadata(plan.shard_checkpoint(index))
                                    .and_then(|m| m.modified())
                                    .ok();
                                if mtime != *last_mtime {
                                    *last_mtime = mtime;
                                    *last_fresh = Instant::now();
                                }
                            }
                            if let Some(window) = stall {
                                if last_fresh.elapsed() > window {
                                    let _ = child.kill();
                                    let _ = child.wait();
                                    let msg = format!(
                                        "shard {index}/{}: no progress for {}s, presumed \
                                         preempted; killed the straggler",
                                        plan.shards,
                                        window.as_secs()
                                    );
                                    *state = next_attempt(plan, index, *attempts, &msg, log)?;
                                }
                            }
                        }
                    }
                }
            }
        }
        if all_done {
            return Ok(());
        }
        std::thread::sleep(StdDuration::from_millis(25));
    }
}

/// Schedules the next attempt of a dead/stalled shard, or gives up once
/// the retry budget is spent.
fn next_attempt(
    plan: &DispatchPlan,
    index: u64,
    attempts: u32,
    why: &str,
    log: &mut dyn FnMut(&str),
) -> Result<ShardState, String> {
    let attempts = attempts + 1;
    if attempts > plan.retries {
        return Err(format!(
            "{why}; retry budget exhausted ({} attempt(s)) — see {}",
            attempts,
            plan.shard_log(index).display()
        ));
    }
    let backoff = StdDuration::from_millis(plan.backoff_ms << (attempts - 1).min(6));
    log(&format!(
        "{why}; re-dispatching in {}ms (attempt {} of {})",
        backoff.as_millis(),
        attempts + 1,
        plan.retries + 1
    ));
    Ok(ShardState::Pending {
        not_before: Instant::now() + backoff,
        attempts,
    })
}

/// One per-shard progress line, with an ETA once the driver has seen
/// the completion count move.
fn progress_line(
    plan: &DispatchPlan,
    index: u64,
    hb: &Heartbeat,
    progress_base: &Option<(u64, Instant)>,
) -> String {
    let mut line = format!(
        "shard {index}/{}: {}/{} seeds, {:.1} polls/s",
        plan.shards, hb.seeds_done, hb.seeds_total, hb.polls_per_sec
    );
    if let Some((base_done, base_at)) = progress_base {
        let advanced = hb.seeds_done.saturating_sub(*base_done);
        let elapsed = base_at.elapsed().as_secs_f64();
        let remaining = hb.seeds_total.saturating_sub(hb.seeds_done);
        if advanced > 0 && elapsed > 0.0 && remaining > 0 {
            let eta = remaining as f64 * elapsed / advanced as f64;
            line.push_str(&format!(", ETA ~{}s", eta.round() as u64));
        }
    }
    line
}

/// Forwards one of a worker's output streams into the shard log, each
/// line stamped `[<utc> s<index>/<shards> a<attempt>]` so interleaved
/// attempts (and the two streams) stay attributable.
fn tee_stream<R: Read + Send + 'static>(stream: R, log_path: PathBuf, tag: String) {
    std::thread::spawn(move || {
        let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
        else {
            // No log file: drain the pipe anyway so the child never
            // blocks on a full stdout.
            let mut sink = std::io::sink();
            let _ = std::io::copy(&mut BufReader::new(stream), &mut sink);
            return;
        };
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            let stamped = format!("[{} {tag}] {line}\n", utc_timestamp(unix_ms_now()));
            // One write per line: O_APPEND keeps concurrent writers from
            // interleaving mid-line.
            let _ = f.write_all(stamped.as_bytes());
        }
    });
}

/// Spawns one shard worker, its stdout+stderr piped through the
/// timestamping tee into the shard log.
fn spawn_shard(bin: &Path, plan: &DispatchPlan, index: u64, attempt: u32) -> Result<Child, String> {
    let mut child = Command::new(bin)
        .args(plan.shard_args(index))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning shard {index} ({}): {e}", bin.display()))?;
    let tag = format!("s{index}/{} a{attempt}", plan.shards);
    if let Some(out) = child.stdout.take() {
        tee_stream(out, plan.shard_log(index), tag.clone());
    }
    if let Some(err) = child.stderr.take() {
        tee_stream(err, plan.shard_log(index), tag);
    }
    Ok(child)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::plan::parse_seed_range;

    fn plan() -> DispatchPlan {
        DispatchPlan {
            scenario: "baseline".into(),
            scale: "quick".into(),
            seeds_arg: "1..10".into(),
            campaign: parse_seed_range("1..10").unwrap(),
            shards: 3,
            threads_per_shard: 2,
            retries: 3,
            backoff_ms: 250,
            stall_secs: Some(600),
            dir: PathBuf::from("results"),
            out: PathBuf::from("results/sweep-baseline.json"),
            fresh: false,
            telemetry: None,
        }
    }

    #[test]
    fn shard_args_reconstruct_the_worker_invocation() {
        let p = plan();
        let args = p.shard_args(2);
        assert_eq!(
            args.join(" "),
            "sweep baseline --scale quick --seeds 1..10 --shard 2/3 --threads 2 \
             --checkpoint results/sweep-baseline-shard-2of3.json"
        );
    }

    #[test]
    fn telemetry_flows_into_worker_args_and_heartbeat_paths() {
        let mut p = plan();
        assert!(p.shard_heartbeat(1).is_none());
        p.telemetry = Some(PathBuf::from("tele"));
        let args = p.shard_args(2).join(" ");
        assert!(args.ends_with("--telemetry tele"), "{args}");
        assert_eq!(
            p.shard_heartbeat(2).unwrap(),
            PathBuf::from("tele/heartbeat-baseline-s2of3.jsonl")
        );
    }

    #[test]
    fn progress_lines_carry_rate_and_eta() {
        let p = plan();
        let hb = Heartbeat {
            unix_ms: 0,
            seeds_done: 3,
            seeds_total: 4,
            polls: 300,
            polls_per_sec: 12.34,
            vm_rss_kb: 1024,
            ..Heartbeat::default()
        };
        // No baseline yet: rate only.
        let line = progress_line(&p, 2, &hb, &None);
        assert_eq!(line, "shard 2/3: 3/4 seeds, 12.3 polls/s");
        // With a baseline observed one second ago having seen 1 seed
        // done, 2 seeds advanced in ~1s leaves ~1s for the last one.
        let base = Some((1, Instant::now() - StdDuration::from_secs(1)));
        let line = progress_line(&p, 2, &hb, &base);
        assert!(line.contains(", ETA ~"), "{line}");
    }

    #[test]
    fn jobfile_lists_every_shard_and_the_merge() {
        let p = plan();
        let text = jobfile(&p, Path::new("/opt/bin/lockss-sim")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Header comments, 3 shard lines, 1 merge line.
        let shard_lines: Vec<&&str> = lines.iter().filter(|l| l.contains("--shard")).collect();
        assert_eq!(shard_lines.len(), 3);
        for (i, line) in shard_lines.iter().enumerate() {
            assert!(line.starts_with("/opt/bin/lockss-sim sweep baseline"));
            assert!(line.contains(&format!("--shard {}/3", i + 1)));
        }
        let merge = lines.last().unwrap_or(&"");
        let merge = if merge.is_empty() {
            lines[lines.len() - 2]
        } else {
            merge
        };
        assert!(merge.contains("sweep merge"));
        assert!(merge.contains("--out results/sweep-baseline.json"));
        assert!(merge.contains("sweep-baseline-shard-1of3.json"));
        assert!(merge.contains("sweep-baseline-shard-3of3.json"));
    }

    #[test]
    fn jobfile_rejects_an_oversharded_campaign() {
        let mut p = plan();
        p.shards = 99;
        let e = jobfile(&p, Path::new("x")).unwrap_err();
        assert!(e.contains("empty shards"), "got: {e}");
    }
}
