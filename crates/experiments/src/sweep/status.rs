//! `sweep status <dir>`: read-only campaign progress, reassembled from
//! whatever checkpoints and heartbeat telemetry a directory holds.
//!
//! Checkpoints give the durable truth (which seeds are finished);
//! heartbeats add liveness (rate, memory, how fresh the worker's last
//! sign of life is). Both inputs are best-effort: a missing or torn file
//! degrades the display, never the command.

use std::path::{Path, PathBuf};

use lockss_metrics::Table;
use lockss_obs::Heartbeat;

use super::plan::SweepReport;
use crate::obs::heartbeat_path;

/// Reads every parseable heartbeat of `path`, in file order. Torn or
/// foreign lines are skipped.
pub fn read_heartbeats(path: &Path) -> Vec<Heartbeat> {
    std::fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .filter_map(|l| Heartbeat::from_json_line(l).ok())
                .collect()
        })
        .unwrap_or_default()
}

/// One shard's view in the status display.
pub struct ShardStatus {
    /// The checkpoint file this row was read from.
    pub checkpoint: PathBuf,
    /// The (possibly partial) report the checkpoint holds.
    pub report: SweepReport,
    /// The freshest heartbeat, when telemetry exists for this shard.
    pub heartbeat: Option<Heartbeat>,
    /// Seed completion rate derived from the heartbeat history.
    pub seeds_per_sec: Option<f64>,
}

fn seeds_rate(hbs: &[Heartbeat]) -> Option<f64> {
    let first = hbs.first()?;
    let last = hbs.last()?;
    let dt = last.unix_ms.saturating_sub(first.unix_ms) as f64 / 1000.0;
    let ds = last.seeds_done.saturating_sub(first.seeds_done) as f64;
    (dt > 0.0 && ds > 0.0).then_some(ds / dt)
}

/// Scans `dir` for sweep checkpoints and pairs each with its heartbeat
/// file under `telemetry` (pass `dir` again when heartbeats live beside
/// the checkpoints). Files that aren't valid sweep checkpoints are
/// skipped; an error is returned only when nothing at all is found.
pub fn campaign_status(dir: &Path, telemetry: &Path) -> Result<Vec<ShardStatus>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("sweep-") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(report) = SweepReport::from_json(&text) else {
            continue; // not a sweep checkpoint (e.g. a scenario summary)
        };
        let shard = report.shard.as_ref().map(|t| (t.index, t.count));
        let hbs = read_heartbeats(&heartbeat_path(telemetry, &report.scenario, shard));
        out.push(ShardStatus {
            checkpoint: path,
            seeds_per_sec: seeds_rate(&hbs),
            heartbeat: hbs.into_iter().next_back(),
            report,
        });
    }
    if out.is_empty() {
        return Err(format!(
            "no sweep checkpoints under {} (expected sweep-*.json)",
            dir.display()
        ));
    }
    Ok(out)
}

fn format_secs(secs: f64) -> String {
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// Renders the campaign table. `now_ms` is the caller's clock (unix
/// milliseconds), injected so the rendering itself stays deterministic
/// and testable.
pub fn render_status(statuses: &[ShardStatus], now_ms: u64) -> String {
    let mut table = Table::new(vec![
        "shard", "scenario", "scale", "seeds", "done", "polls/s", "rss", "beat", "eta",
    ]);
    let (mut all_done, mut all_total) = (0u64, 0u64);
    for s in statuses {
        let done = s.report.completed.len() as u64;
        let total = s.report.seeds.len() as u64;
        all_done += done;
        all_total += total;
        let label = s
            .report
            .shard
            .as_ref()
            .map_or_else(|| "1/1".to_string(), |t| t.label());
        let pct = if total > 0 {
            100.0 * done as f64 / total as f64
        } else {
            100.0
        };
        let (pps, rss, beat) = match &s.heartbeat {
            Some(hb) => (
                format!("{:.1}", hb.polls_per_sec),
                format!("{} MiB", hb.vm_rss_kb / 1024),
                format!(
                    "{} ago",
                    format_secs(now_ms.saturating_sub(hb.unix_ms) as f64 / 1000.0)
                ),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let eta = if done >= total {
            "done".to_string()
        } else {
            match s.seeds_per_sec {
                Some(r) if r > 0.0 => format!("~{}", format_secs((total - done) as f64 / r)),
                _ => "-".into(),
            }
        };
        table.row(vec![
            label,
            s.report.scenario.clone(),
            s.report.scale.clone(),
            format!("{done}/{total}"),
            format!("{pct:.0}%"),
            pps,
            rss,
            beat,
            eta,
        ]);
    }
    let pct = if all_total > 0 {
        100.0 * all_done as f64 / all_total as f64
    } else {
        100.0
    };
    format!(
        "{}\ncampaign: {all_done}/{all_total} seeds ({pct:.0}%)\n",
        table.render().trim_end()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-status-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn beat(unix_ms: u64, seeds_done: u64) -> Heartbeat {
        Heartbeat {
            unix_ms,
            scenario: "tiny".into(),
            scale: "quick".into(),
            shard: 1,
            shards: 1,
            seeds_done,
            seeds_total: 4,
            last_seed: seeds_done,
            polls: 100 * seeds_done,
            events: 1000,
            polls_per_sec: 12.5,
            vm_rss_kb: 4096,
            arena_live: 1,
            arena_total: 8,
        }
    }

    #[test]
    fn heartbeat_lines_roundtrip() {
        let hb = beat(5000, 2);
        let rec = Heartbeat::from_json_line(&hb.to_json_line()).unwrap();
        assert_eq!(rec.unix_ms, 5000);
        assert_eq!(rec.seeds_done, 2);
        assert_eq!(rec.seeds_total, 4);
        assert_eq!(rec.polls, 200);
        assert_eq!(rec.polls_per_sec, 12.5);
        assert_eq!(rec.vm_rss_kb, 4096);
        assert_eq!(rec, hb);
    }

    #[test]
    fn torn_heartbeat_lines_are_skipped() {
        let dir = tmpdir("tail");
        let path = dir.join("heartbeat-tiny.jsonl");
        for i in 0..5 {
            beat(1000 * i, i).append_to(&path).unwrap();
        }
        // A torn final line (mid-crash append) leaves the complete records.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"unix_ms\": 9")
            .unwrap();
        let beats = read_heartbeats(&path);
        assert_eq!(beats.len(), 5);
        let last = beats.last().unwrap();
        assert_eq!(last.unix_ms, 4000);
        assert_eq!(last.seeds_done, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn status_pairs_checkpoints_with_heartbeats() {
        use lockss_metrics::Summary;
        let dir = tmpdir("pair");
        let mut report = SweepReport::new("tiny", "quick", vec![1, 2, 3, 4]);
        report.record(1, Summary::default());
        report.record(2, Summary::default());
        std::fs::write(dir.join("sweep-tiny.json"), report.to_json()).unwrap();
        // Non-checkpoint JSON beside it must be skipped, not fatal.
        std::fs::write(dir.join("sweep-bogus.json"), "{\"x\": 1}").unwrap();
        beat(1000, 0)
            .append_to(&dir.join("heartbeat-tiny.jsonl"))
            .unwrap();
        beat(5000, 2)
            .append_to(&dir.join("heartbeat-tiny.jsonl"))
            .unwrap();

        let statuses = campaign_status(&dir, &dir).unwrap();
        assert_eq!(statuses.len(), 1);
        let s = &statuses[0];
        assert_eq!(s.report.completed.len(), 2);
        assert_eq!(s.heartbeat.as_ref().unwrap().seeds_done, 2);
        // 2 seeds over 4 wall seconds.
        assert!((s.seeds_per_sec.unwrap() - 0.5).abs() < 1e-9);

        let rendered = render_status(&statuses, 6000);
        assert!(rendered.contains("2/4"), "{rendered}");
        assert!(rendered.contains("50%"), "{rendered}");
        assert!(rendered.contains("1s ago"), "{rendered}");
        assert!(rendered.contains("~4s"), "{rendered}");
        assert!(rendered.contains("campaign: 2/4 seeds (50%)"), "{rendered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_an_error() {
        let dir = tmpdir("empty");
        assert!(campaign_status(&dir, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
