//! The jobfile: a campaign handed out as shard command lines, for
//! whatever runs them.
//!
//! `sweep <name> --jobfile <path> --shards N` runs nothing. It writes N
//! worker lines — the same invocation with `--shard i/N` in place of
//! `--jobfile` and `--shards` — then one `sweep merge` line naming the
//! checkpoints those workers write at their default paths
//! ([`report_path`]). Any executor runs them: `xargs -P`, GNU parallel,
//! ssh, a cluster scheduler. Any worker can run anywhere, because the
//! shard topology is derived, not assigned.
//!
//! Every token on a line is shell-quoted where it needs to be, so a
//! binary path or flag value holding a space or a quote survives `sh -c`.
//!
//! The failure model needs no supervisor. A worker that dies is rerun,
//! and its checkpoint resumes it. A worker that hangs is bounded by
//! `timeout`. Its output goes wherever the executor redirects it. And
//! `sweep merge` refuses any set of checkpoints that does not tile the
//! campaign exactly.

use std::path::Path;

use super::plan::report_path;
use super::shard::ShardTag;

/// A campaign cut into shard command lines.
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// Registered scenario name.
    pub scenario: String,
    /// Scale label (`quick` / `default` / `paper`), for the header.
    pub scale: String,
    /// The campaign's seeds. Each worker re-derives its own slice from
    /// the same flags, so the plan and the workers cannot disagree.
    pub campaign: Vec<u64>,
    /// How many shards to cut the campaign into.
    pub shards: u64,
    /// The flags every worker line passes, as written: the `sweep`
    /// invocation's own, without `--jobfile` and `--shards`.
    pub flags: Vec<String>,
}

impl DispatchPlan {
    /// The argv tail of shard `index`'s worker invocation.
    pub fn shard_args(&self, index: u64) -> Vec<String> {
        let mut args = vec!["sweep".to_string(), self.scenario.clone()];
        args.extend(self.flags.iter().cloned());
        args.extend(["--shard".to_string(), format!("{index}/{}", self.shards)]);
        args
    }
}

/// `token` as one POSIX shell word: unchanged if it is made only of
/// characters no shell treats specially, else in single quotes, with each
/// `'` written as `'\''`.
fn shell_word(token: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "_@%+=:,./-".contains(c);
    if !token.is_empty() && token.chars().all(plain) {
        token.to_string()
    } else {
        format!("'{}'", token.replace('\'', r"'\''"))
    }
}

/// One command line: `bin` and `args`, each shell-quoted.
fn command_line(bin: &str, args: impl IntoIterator<Item = String>) -> String {
    let words: Vec<String> = args.into_iter().map(|a| shell_word(&a)).collect();
    format!("{} {}", shell_word(bin), words.join(" "))
}

/// Renders the jobfile: one worker command line per shard, then the
/// merge that reassembles them.
pub fn jobfile(plan: &DispatchPlan, bin: &Path) -> Result<String, String> {
    ShardTag::new(1, plan.shards, plan.campaign.clone())?;
    let bin = bin.to_string_lossy();
    let mut lines = vec![format!(
        "# sweep fabric jobfile: '{}' at scale '{}', {} seed(s), {} shard(s)\n\
         # run each shard line anywhere (any order, any host with this binary\n\
         # and a shared or collected results/), rerun any that fails, then\n\
         # run the merge line.",
        plan.scenario,
        plan.scale,
        plan.campaign.len(),
        plan.shards
    )];
    for index in 1..=plan.shards {
        lines.push(command_line(&bin, plan.shard_args(index)));
    }
    let checkpoints = (1..=plan.shards)
        .map(|i| report_path(&plan.scenario, Some((i, plan.shards))))
        .map(|path| path.display().to_string());
    let merge = ["sweep".to_string(), "merge".to_string()];
    lines.push(command_line(&bin, merge.into_iter().chain(checkpoints)));
    lines.push(String::new());
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::heartbeat_path;
    use std::path::PathBuf;

    fn plan() -> DispatchPlan {
        let flags = "--scale quick --seeds 1..10 --threads 2";
        DispatchPlan {
            scenario: "baseline".into(),
            scale: "quick".into(),
            campaign: (1..=10).collect(),
            shards: 3,
            flags: flags.split(' ').map(String::from).collect(),
        }
    }

    #[test]
    fn shard_args_reconstruct_the_worker_invocation() {
        let p = plan();
        let args = p.shard_args(2);
        assert_eq!(
            args.join(" "),
            "sweep baseline --scale quick --seeds 1..10 --threads 2 --shard 2/3"
        );
    }

    #[test]
    fn telemetry_flows_into_worker_args_and_heartbeat_paths() {
        let mut p = plan();
        p.flags.extend(["--telemetry".into(), "tele".into()]);
        let args = p.shard_args(2).join(" ");
        assert!(args.contains(" --telemetry tele "), "{args}");
        // The worker names its heartbeat file by topology, which is where
        // `sweep status tele` looks for it.
        assert_eq!(
            heartbeat_path(Path::new("tele"), &p.scenario, Some((2, p.shards))),
            PathBuf::from("tele/heartbeat-baseline-s2of3.jsonl")
        );
    }

    #[test]
    fn jobfile_lists_every_shard_and_the_merge() {
        let p = plan();
        let text = jobfile(&p, Path::new("/usr/local/bin/lockss-sim")).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        // 3 shard lines, then 1 merge line.
        assert_eq!(lines.len(), 4, "{text}");
        for (i, line) in lines[..3].iter().enumerate() {
            assert!(line.starts_with("/usr/local/bin/lockss-sim sweep baseline"));
            assert!(line.ends_with(&format!("--shard {}/3", i + 1)), "{line}");
            assert!(!line.contains("--checkpoint"), "{line}");
        }
        assert_eq!(
            lines[3],
            "/usr/local/bin/lockss-sim sweep merge results/sweep-baseline-shard-1of3.json \
             results/sweep-baseline-shard-2of3.json results/sweep-baseline-shard-3of3.json"
        );
    }

    /// Plain tokens stay as they are; anything else is single-quoted, and
    /// a quote inside is closed, escaped and reopened.
    #[test]
    fn tokens_are_shell_quoted_only_when_they_need_it() {
        assert_eq!(shell_word("results/tele-1_2.json"), "results/tele-1_2.json");
        assert_eq!(shell_word("1..10"), "1..10");
        assert_eq!(shell_word(""), "''");
        assert_eq!(shell_word("q q"), "'q q'");
        assert_eq!(shell_word("it's"), r"'it'\''s'");
        assert_eq!(shell_word("$HOME;*`~"), "'$HOME;*`~'");
        let mut p = plan();
        p.flags.extend(["--telemetry".into(), "t e'l".into()]);
        let text = jobfile(&p, Path::new("/srv/q q'x/lockss-sim")).unwrap();
        let first = text.lines().find(|l| !l.starts_with('#')).unwrap();
        let want = concat!(
            r"'/srv/q q'\''x/lockss-sim' sweep baseline --scale quick --seeds 1..10 ",
            r"--threads 2 --telemetry 't e'\''l' --shard 1/3"
        );
        assert_eq!(first, want);
    }

    #[test]
    fn jobfile_rejects_an_oversharded_campaign() {
        let mut p = plan();
        p.shards = 99;
        let e = jobfile(&p, Path::new("x")).unwrap_err();
        assert!(e.contains("empty shards"), "got: {e}");
    }
}
