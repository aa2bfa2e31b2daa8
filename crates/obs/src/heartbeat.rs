//! Sweep worker heartbeats: periodic JSONL liveness records.
//!
//! Heartbeat files are append-only telemetry (`heartbeat-<shard>.jsonl`
//! under the `--telemetry` directory). They carry enough state for a
//! reader — `sweep status`, or an operator's own watchdog — to compute
//! progress, rate, and ETA without touching checkpoints. Appends are
//! best-effort: a lost heartbeat costs liveness information, never
//! results, so there is no fsync here.

use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;

use crate::json::{self, Layout, Writer};

/// Format tag stamped on every heartbeat line. Consumers parse by key
/// and must ignore keys they do not know, so adding fields is a
/// same-version change; removing or re-typing one bumps the version.
pub const FORMAT: &str = "lockss-heartbeat-v1";

/// One heartbeat record; serialized as a single JSON line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Heartbeat {
    /// Wall-clock milliseconds since the unix epoch at emission.
    pub unix_ms: u64,
    /// Scenario name the shard is sweeping.
    pub scenario: String,
    /// Scale label the sweep runs at (e.g. `quick`).
    pub scale: String,
    /// One-based shard index, matching the checkpoint file name (1 for
    /// an unsharded sweep).
    pub shard: u32,
    /// Total shard count (1 for an unsharded sweep).
    pub shards: u32,
    /// Seeds completed so far by this shard.
    pub seeds_done: u64,
    /// Seeds this shard is responsible for in total.
    pub seeds_total: u64,
    /// The most recently completed seed (0 before the first finishes).
    pub last_seed: u64,
    /// Polls opened so far — advances *during* a seed, not just between
    /// seeds, which is what lets a reader tell slow from stalled.
    pub polls: u64,
    /// Engine events executed across finished run loops; a run's loops
    /// cover at most 30 simulated days each, so this advances during a
    /// seed.
    pub events: u64,
    /// Poll throughput since the shard started, polls per wall second.
    pub polls_per_sec: f64,
    /// Current resident set size (VmRSS) in KiB, 0 when unavailable.
    pub vm_rss_kb: u64,
    /// The most events any run loop left pending at its exit, a 30-day
    /// slice boundary or a horizon (`engine_events_queued`), so the same
    /// seeds read the same value at any thread count.
    pub arena_live: u64,
    /// The most events pending at once, as of the last run loop's exit.
    pub arena_total: u64,
}

impl Heartbeat {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = Writer::new();
        w.object(Layout::Inline)
            .field("format", FORMAT)
            .field("unix_ms", self.unix_ms)
            .field("scenario", &self.scenario)
            .field("scale", &self.scale)
            .field("shard", self.shard)
            .field("shards", self.shards)
            .field("seeds_done", self.seeds_done)
            .field("seeds_total", self.seeds_total)
            .field("last_seed", self.last_seed)
            .field("polls", self.polls)
            .field("events", self.events)
            .field("polls_per_sec", self.polls_per_sec)
            .field("vm_rss_kb", self.vm_rss_kb)
            .field("arena_live", self.arena_live)
            .field("arena_total", self.arena_total)
            .end()
            .finish()
    }

    /// Parses one line written by [`Heartbeat::to_json_line`], by key:
    /// keys this version does not know are ignored. A torn or malformed
    /// line, another format, or a missing or mistyped field is an `Err`.
    pub fn from_json_line(line: &str) -> Result<Heartbeat, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let f = v.as_object("heartbeat")?;
        let format = json::get(f, "format")?.as_str("format")?;
        if format != FORMAT {
            return Err(format!("not a heartbeat: format {format:?}"));
        }
        let num = |key: &str| json::get(f, key)?.as_u64(key);
        let small = |key: &str| u32::try_from(num(key)?).map_err(|_| format!("{key} out of range"));
        let text = |key: &str| Ok::<_, String>(json::get(f, key)?.as_str(key)?.to_string());
        Ok(Heartbeat {
            unix_ms: num("unix_ms")?,
            scenario: text("scenario")?,
            scale: text("scale")?,
            shard: small("shard")?,
            shards: small("shards")?,
            seeds_done: num("seeds_done")?,
            seeds_total: num("seeds_total")?,
            last_seed: num("last_seed")?,
            polls: num("polls")?,
            events: num("events")?,
            polls_per_sec: json::get(f, "polls_per_sec")?.as_f64("polls_per_sec")?,
            vm_rss_kb: num("vm_rss_kb")?,
            arena_live: num("arena_live")?,
            arena_total: num("arena_total")?,
        })
    }

    /// Appends the record (plus newline) to `path`, creating the file
    /// if needed.
    pub fn append_to(&self, path: &Path) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        let mut line = self.to_json_line();
        line.push('\n');
        f.write_all(line.as_bytes())
    }
}

/// One `kB` field of `/proc/self/status`, such as `VmRSS` (resident set
/// size) or `VmHWM` (its peak). `None` on platforms without procfs, or
/// when the field is missing.
pub fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let hb = Heartbeat {
            unix_ms: 1000,
            scenario: "att\"ack".into(),
            scale: "quick".into(),
            shard: 2,
            shards: 4,
            seeds_done: 3,
            seeds_total: 10,
            last_seed: 7,
            polls: 42,
            events: 99,
            polls_per_sec: 6.25,
            vm_rss_kb: 2048,
            arena_live: 5,
            arena_total: 64,
        };
        let line = hb.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"format\": \"lockss-heartbeat-v1\""));
        assert!(line.contains("\"scenario\": \"att\\\"ack\""));
        assert!(line.contains("\"seeds_done\": 3"));
        assert!(line.contains("\"polls_per_sec\": 6.25"));
        assert!(line.contains("\"scale\": \"quick\""));
        assert_eq!(Heartbeat::from_json_line(&line), Ok(hb));
        // Another format, a missing field or a torn line is refused.
        let foreign = line.replace(FORMAT, "lockss-profile-v1");
        assert!(Heartbeat::from_json_line(&foreign).is_err());
        let missing = line.replace("\"polls\"", "\"pools\"");
        assert!(Heartbeat::from_json_line(&missing).is_err());
        assert!(Heartbeat::from_json_line(&line[..line.len() / 2]).is_err());
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("obs-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heartbeat-0.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut hb = Heartbeat::default();
        for i in 0..3 {
            hb.seeds_done = i;
            hb.append_to(&path).unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rss_reads_on_linux() {
        // On Linux both fields are there and non-zero; elsewhere `None`.
        if cfg!(target_os = "linux") {
            assert!(proc_status_kb("VmRSS").unwrap() > 0);
            assert!(proc_status_kb("VmHWM").unwrap() >= proc_status_kb("VmRSS").unwrap() / 2);
            assert_eq!(proc_status_kb("VmNoSuchField"), None);
        }
    }
}
