//! Shard topology: how a campaign's seed list is sliced across workers,
//! and the fault-injection hook the test suite uses to kill a worker at
//! the worst possible moment.
//!
//! The wire rule is deliberately boring: sort and dedup the campaign
//! seeds, split them into `count` contiguous slices whose lengths differ
//! by at most one (the first `len % count` shards get the extra seed),
//! and give shard `i` (1-based) the i-th slice. Every process that holds
//! the same campaign seed list computes the same partition — no
//! coordinator, no assignment table, nothing to desynchronize across
//! hosts.

use std::path::Path;

use lockss_sim::json::{self, Layout, Writer};

/// The topology tag a shard checkpoint carries: which slice this is
/// (`index` of `count`, 1-based) and the *full* campaign seed list, so
/// `sweep merge` can prove the reassembled shards cover the campaign
/// exactly — no seed missing, none computed twice.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardTag {
    /// 1-based shard index.
    pub index: u64,
    /// Total shard count.
    pub count: u64,
    /// Every seed of the whole campaign, ascending and deduped.
    pub campaign: Vec<u64>,
}

impl ShardTag {
    /// Builds a validated tag: `1 <= index <= count`, and every shard
    /// must receive at least one seed.
    pub fn new(index: u64, count: u64, mut campaign: Vec<u64>) -> Result<ShardTag, String> {
        campaign.sort_unstable();
        campaign.dedup();
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index == 0 || index > count {
            return Err(format!(
                "shard index {index} is outside 1..={count} (indices are 1-based)"
            ));
        }
        if (count as usize) > campaign.len() {
            return Err(format!(
                "{count} shards over {} seed(s) would leave empty shards; \
                 use at most {} shard(s)",
                campaign.len(),
                campaign.len()
            ));
        }
        Ok(ShardTag {
            index,
            count,
            campaign,
        })
    }

    /// This shard's own seed slice.
    pub fn seeds(&self) -> Vec<u64> {
        partition(&self.campaign, self.count)[(self.index - 1) as usize].clone()
    }

    /// The `i/N` display form.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }

    /// Writes the tag as the next value of `w`: an inline object in the
    /// checkpoint's canonical field order.
    pub fn write_json(&self, w: &mut Writer) {
        w.object(Layout::Inline)
            .field("index", self.index)
            .field("count", self.count)
            .key("campaign")
            .list(&self.campaign)
            .end();
    }

    /// Parses a tag written by [`ShardTag::write_json`], re-validating the
    /// topology (a hand-edited index outside `1..=count` is rejected
    /// here, before merge logic ever sees it).
    pub fn from_json(v: &json::Value) -> Result<ShardTag, String> {
        let obj = v.as_object("shard")?;
        let index = json::get(obj, "index")?.as_u64("shard.index")?;
        let count = json::get(obj, "count")?.as_u64("shard.count")?;
        let campaign = json::get(obj, "campaign")?.as_u64_array("shard.campaign")?;
        ShardTag::new(index, count, campaign)
    }
}

/// Splits `seeds` (assumed sorted and deduped) into `count` contiguous
/// slices whose lengths differ by at most one — the canonical partition
/// every shard, on every host, derives independently.
pub fn partition(seeds: &[u64], count: u64) -> Vec<Vec<u64>> {
    let count = (count as usize).max(1);
    let base = seeds.len() / count;
    let extra = seeds.len() % count;
    let mut out = Vec::with_capacity(count);
    let mut at = 0;
    for i in 0..count {
        let take = base + usize::from(i < extra);
        out.push(seeds[at..at + take].to_vec());
        at += take;
    }
    out
}

/// Parses a `--shard i/N` argument into its `(index, count)` pair.
pub fn parse_shard_arg(arg: &str) -> Result<(u64, u64), String> {
    let (i, n) = arg
        .split_once('/')
        .ok_or_else(|| format!("'{arg}' is not of the form i/N (e.g. --shard 2/8)"))?;
    let parse = |s: &str, what: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| format!("shard {what} '{s}' is not a number"))
    };
    Ok((parse(i, "index")?, parse(n, "count")?))
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// The variable that arms the [`CrashHook`].
const CRASH_AFTER: &str = "LOCKSS_SWEEP_CRASH_AFTER";

/// Test-only crash injection, armed by one environment variable; CI's
/// kill-one-shard step and the `sweep_fabric` test harness use it to die
/// at the most damaging instant — mid-checkpoint-write, lock held, temp
/// file torn.
///
/// `LOCKSS_SWEEP_CRASH_AFTER=k` aborts the process as it completes its
/// k-th seed (counting only seeds run by this process, not resumed ones),
/// *instead of* writing that checkpoint: a truncated temp file is written
/// and the process aborts before the rename. A caller arms it on exactly
/// the worker it wants to crash, then reruns that worker without it; the
/// rerun resumes from the durable checkpoint, which is how the tests
/// prove resume-after-crash converges.
#[derive(Clone, Copy, Debug)]
pub struct CrashHook {
    after: usize,
}

impl CrashHook {
    /// Reads the hook from the environment: `None` when the variable is
    /// unset, an error naming it when it is set to anything but a seed
    /// count (a typo must not silently disarm a crash test).
    pub fn from_env() -> Result<Option<CrashHook>, String> {
        let raw = std::env::var_os(CRASH_AFTER);
        CrashHook::parse(raw.as_ref().map(|r| r.to_string_lossy()).as_deref())
    }

    fn parse(raw: Option<&str>) -> Result<Option<CrashHook>, String> {
        let Some(raw) = raw else { return Ok(None) };
        match raw.parse() {
            Ok(after) => Ok(Some(CrashHook { after })),
            Err(_) => Err(format!(
                "{CRASH_AFTER} is set to '{raw}', which is not a seed count"
            )),
        }
    }

    /// Aborts the process if `done` (seeds completed by this process) has
    /// reached the armed threshold: writes a torn temp file next to
    /// `checkpoint` — half of `content`, never renamed — and dies without
    /// unwinding, exactly like `kill -9` landing mid-checkpoint-write.
    pub fn maybe_crash(&self, done: usize, checkpoint: Option<&Path>, content: &str) {
        if done != self.after {
            return;
        }
        if let Some(path) = checkpoint {
            let tmp = path.with_extension("json.tmp");
            let _ = std::fs::write(&tmp, &content.as_bytes()[..content.len() / 2]);
        }
        eprintln!("{CRASH_AFTER}: injected crash after {done} seed(s)");
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_balanced_and_covers() {
        let seeds: Vec<u64> = (10..=30).collect(); // 21 seeds
        for count in 1..=16u64 {
            if count as usize > seeds.len() {
                break;
            }
            let parts = partition(&seeds, count);
            assert_eq!(parts.len(), count as usize);
            let flat: Vec<u64> = parts.iter().flatten().copied().collect();
            assert_eq!(flat, seeds, "concatenation reproduces the campaign");
            let min = parts.iter().map(Vec::len).min().unwrap();
            let max = parts.iter().map(Vec::len).max().unwrap();
            assert!(max - min <= 1, "slice lengths differ by at most one");
        }
    }

    #[test]
    fn shard_tag_validates_topology() {
        assert!(ShardTag::new(1, 1, vec![7]).is_ok());
        assert!(ShardTag::new(0, 3, vec![1, 2, 3]).is_err(), "1-based");
        assert!(ShardTag::new(4, 3, vec![1, 2, 3]).is_err(), "index > count");
        assert!(ShardTag::new(1, 0, vec![1]).is_err(), "zero shards");
        let e = ShardTag::new(1, 5, vec![1, 2, 3]).unwrap_err();
        assert!(e.contains("empty shards"), "got: {e}");
        // The campaign list is normalized exactly like SweepReport seeds.
        let tag = ShardTag::new(2, 2, vec![3, 1, 2, 1]).unwrap();
        assert_eq!(tag.campaign, vec![1, 2, 3]);
        assert_eq!(tag.seeds(), vec![3], "second of two shards over 3 seeds");
    }

    #[test]
    fn shard_tag_roundtrips() {
        let tag = ShardTag::new(3, 4, (1..=10).collect()).unwrap();
        let mut w = Writer::new();
        tag.write_json(&mut w);
        let text = w.finish();
        let v = json::parse(&text).expect("valid json");
        assert_eq!(ShardTag::from_json(&v).expect("parses"), tag);
        // A hand-edited out-of-range index fails at parse time.
        let doctored = text.replace("\"index\": 3", "\"index\": 9");
        let v = json::parse(&doctored).unwrap();
        assert!(ShardTag::from_json(&v).is_err());
    }

    #[test]
    fn a_set_but_unparsable_crash_hook_is_an_error_naming_the_variable() {
        assert!(CrashHook::parse(None).unwrap().is_none(), "unset: disarmed");
        let hook = CrashHook::parse(Some("2")).unwrap().expect("armed");
        assert_eq!(hook.after, 2);
        for raw in ["", "two", "-1", "1.5", " 2"] {
            let e = CrashHook::parse(Some(raw)).unwrap_err();
            assert!(
                e.contains(CRASH_AFTER) && e.contains(&format!("'{raw}'")),
                "{raw:?}: {e}"
            );
        }
    }

    #[test]
    fn shard_arg_parsing() {
        assert_eq!(parse_shard_arg("2/8").unwrap(), (2, 8));
        assert!(parse_shard_arg("2").is_err());
        assert!(parse_shard_arg("a/b").is_err());
    }

    #[test]
    fn slices_reassemble_any_topology() {
        // Every (index, count) pair over an uneven range: the union of
        // ShardTag::seeds() is the campaign, with no overlap.
        let campaign: Vec<u64> = (100..=137).collect();
        for count in 1..=16u64 {
            let mut union = Vec::new();
            for index in 1..=count {
                union.extend(
                    ShardTag::new(index, count, campaign.clone())
                        .unwrap()
                        .seeds(),
                );
            }
            union.sort_unstable();
            let before = union.len();
            union.dedup();
            assert_eq!(union.len(), before, "{count}-way slices overlap");
            assert_eq!(union, campaign, "{count}-way slices miss seeds");
        }
    }
}
