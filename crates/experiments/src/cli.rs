//! The `lockss-sim` command line, declared once.
//!
//! [`VERBS`] lists every verb path (`run`, `sweep merge`, `trace
//! export`, …), its operands, and each flag it accepts — a switch or a
//! typed value, once or repeated — with one help line. [`parse`] is the
//! only reader of argv: it checks every value's type and rejects an
//! unknown verb or flag, a missing value (or a flag in its place), a
//! repeated flag and a wrong operand count before anything runs. The help
//! text — `--help`, and the usage printed on misuse — is rendered from the
//! same table.

use crate::figures;
use crate::scale::Scale;
use crate::sweep::{parse_seed_range, parse_shard_arg, MAX_SEEDS};
use lockss_sim::Duration;

/// What a flag takes.
#[derive(Clone, Copy, Debug)]
pub enum Ty {
    /// Nothing: the flag is a switch.
    Switch,
    /// Any token that is not itself a flag: a path, a name, a glob.
    Text,
    /// A non-negative integer, described by the text in diagnostics.
    Num(&'static str),
    /// A positive integer: a count of threads or workers, where 0 would
    /// run nothing.
    Positive,
    /// A day count from 1 to the most days simulated time holds
    /// ([`Duration::max_count`]).
    Days,
    /// A seed count `K` (seeds `1..=K`), at most [`MAX_SEEDS`].
    SeedCount,
    /// Seeds: a count `K` (seeds `1..=K`) or an inclusive range `A..B`,
    /// at most [`MAX_SEEDS`] of them.
    Seeds,
    /// Comma-separated positive integers.
    Budgets,
    /// A shard `i/N`, kept as the numbers `[i, N]`.
    Shard,
    /// A scale name ([`Scale::parse`]).
    Scale,
}

/// One flag a verb accepts.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder in the help text; empty for a switch.
    pub arg: &'static str,
    pub ty: Ty,
    pub help: &'static str,
}

/// One verb: the words that select it, its operands and its flags.
#[derive(Debug)]
pub struct Verb {
    /// The selecting words: `"run"`, `"trace diff"`.
    pub path: &'static str,
    /// The operands' synopsis, e.g. `"<a> <b>"`.
    pub operands: &'static str,
    /// The fewest and the most operands.
    pub count: (usize, usize),
    /// A flag that takes the operands' place when given (`run --file`).
    pub instead: Option<&'static str>,
    pub about: &'static str,
    pub flags: &'static [Flag],
    /// Help text rendered after the flags (the figure ids).
    pub more: Option<fn() -> String>,
}

#[rustfmt::skip]
mod table {
    use super::*;

    const fn flag(name: &'static str, arg: &'static str, ty: Ty, help: &'static str) -> Flag {
        Flag { name, arg, ty, help }
    }
    const fn switch(name: &'static str, help: &'static str) -> Flag { flag(name, "", Ty::Switch, help) }
    const VERB: Verb = Verb { path: "", operands: "", count: (0, 0), instead: None, about: "", flags: &[], more: None };
    const ANY: usize = usize::MAX;

    const SCALE: Flag = flag("--scale", "<scale>", Ty::Scale, "quick|default|paper (absent: default)");
    const SEEDS: Flag = flag("--seeds", "<K|A..B>", Ty::Seeds, "seeds 1..=K or A..B (default: the scale's)");
    const THREADS: Flag = flag("--threads", "<N>", Ty::Positive, "worker threads (default: all cores); output is identical at any count");
    const PROFILE: Flag = switch("--profile", "time span trees and write results/profile-<name>.json");
    const METRICS_OUT: Flag = flag("--metrics-out", "<path>", Ty::Text, "snapshot the metrics registry as JSON at <path>, Prometheus text beside it");
    const MEM_REPORT: Flag = switch("--mem-report", "print peak RSS and event-queue/table occupancy");
    const MERGED_OUT: Flag = flag("--out", "<path>", Ty::Text, "merged report path (default results/sweep-<name>.json)");
    const JSON: Flag = switch("--json", "print the JSON report to stdout");

    /// Every verb `lockss-sim` has, in help order.
    pub const VERBS: &[Verb] = &[
        Verb { path: "list", about: "all registered scenarios",
            flags: &[switch("--names", "bare names, one per line"), SCALE], ..VERB },
        Verb { path: "describe", operands: "<name>", count: (1, 1), about: "one scenario in detail", flags: &[SCALE], ..VERB },
        Verb { path: "run", operands: "<name> | --file <path>", count: (1, 1), instead: Some("--file"),
            about: "run a scenario (and its matched baseline), report the metrics, write results/scenario-<name>.json", flags: &[
            flag("--file", "<path>", Ty::Text, "run a declarative scenario file instead of a registered <name>"),
            SCALE,
            flag("--seed", "<N>", Ty::Num("a seed number"), "run exactly this one seed"),
            flag("--seeds", "<K>", Ty::SeedCount, "run seeds 1..=K (default: the scale's)"),
            flag("--record", "<path>", Ty::Text, "record the run's event trace (one seed only)"),
            PROFILE, METRICS_OUT, MEM_REPORT, JSON,
        ], ..VERB },
        Verb { path: "validate", operands: "<path>...", count: (1, ANY),
            about: "check scenario files against the spec grammar; exits 1 on any failure", ..VERB },
        Verb { path: "fuzz", about: "run random campaigns under the round-trip, accounting and replay oracles; exits 1 on a violation", flags: &[
            flag("--seeds", "<K|A..B>", Ty::Seeds, "campaign seeds (default 1..50)"),
            flag("--out", "<dir>", Ty::Text, "where shrunk reproducers land (default results/fuzz)"),
        ], ..VERB },
        Verb { path: "sweep", operands: "<name>", count: (1, 1),
            about: "run a seed sweep on a worker pool; byte-identical for any --threads, resumable from its checkpoint", flags: &[
            SCALE, SEEDS,
            flag("--shard", "<i/N>", Ty::Shard, "run only the i-th of N disjoint slices of the seeds"),
            THREADS,
            flag("--checkpoint", "<path>", Ty::Text, "checkpoint and report (default results/sweep-<name>[-shard-<i>of<N>].json)"),
            switch("--fresh", "ignore an existing checkpoint and recompute every seed"),
            flag("--record", "<dir>", Ty::Text, "keep each freshly run seed's trace as <dir>/trace-<name>-s<seed>.bin"),
            PROFILE, METRICS_OUT,
            flag("--telemetry", "<dir>", Ty::Text, "append heartbeat JSONL records under <dir> every ~2s"),
            JSON, MEM_REPORT,
            flag("--jobfile", "<path>", Ty::Text, "run nothing: write one line per shard (this command with --shard i/N) and the merge line"),
            flag("--shards", "<N>", Ty::Positive, "shard lines --jobfile writes (default: all cores)"),
        ], ..VERB },
        Verb { path: "sweep merge", operands: "<checkpoint>...", count: (1, ANY), flags: &[MERGED_OUT, JSON],
            about: "check shard checkpoints (disjoint, complete, one campaign) and write the merged report; exits 1 on a violation", ..VERB },
        Verb { path: "sweep status", operands: "<dir>", count: (1, 1), about: "render campaign progress from the checkpoints under <dir>",
            flags: &[flag("--telemetry", "<dir>", Ty::Text, "heartbeat directory (default: the checkpoint <dir>)")], ..VERB },
        Verb { path: "sweep recovery",
            about: "mobile-takeover recovery threshold study: time-to-heal and a heals/data-loss verdict per budget", flags: &[
            flag("--budgets", "<B,...>", Ty::Budgets, "concurrency budgets, one row each"),
            flag("--seeds", "<K|A..B>", Ty::Seeds, "seeds per budget"),
            flag("--attack-days", "<N>", Ty::Days, "campaign length in days"),
            flag("--heal-window", "<N>", Ty::Days, "days the world may keep repairing after the campaign"),
            flag("--period", "<N>", Ty::Days, "migration period in days"),
            THREADS,
            flag("--out", "<path>", Ty::Text, "report path (default results/recovery-threshold.txt)"),
        ], ..VERB },
        Verb { path: "figure", operands: "<id>... | all", count: (1, ANY), flags: &[SCALE], more: Some(figures::catalog),
            about: "regenerate the paper's figures and tables into results/<id>.{txt,csv}; siblings share their sweep", ..VERB },
        Verb { path: "replay", operands: "<trace>", count: (1, 1),
            about: "re-run a recorded trace's scenario and verify it event for event; exits 1 on divergence",
            flags: &[flag("--seed", "<N>", Ty::Num("a seed number"), "perturb the recorded seed to find where runs fork")], ..VERB },
        Verb { path: "trace diff", operands: "<a> <b>", count: (2, 2),
            about: "align two traces and summarize where they fork", flags: &[THREADS], ..VERB },
        Verb { path: "trace stats", operands: "<trace>...", count: (1, ANY),
            about: "per-poll/per-phase timelines of one trace, or an aggregate over many",
            flags: &[THREADS, switch("--json", "print lockss-trace-stats-v1 JSON instead of tables")], ..VERB },
        Verb { path: "trace export", operands: "<trace>", count: (1, 1), about: "dense CSV timeline of the event stream", flags: &[
            THREADS,
            flag("--csv", "<path>", Ty::Text, "write the CSV to <path> instead of stdout"),
            flag("--bucket-days", "<N>", Ty::Days, "row width in days (default 1)"),
        ], ..VERB },
        Verb { path: "bench diff", operands: "<base> <new>...", count: (2, ANY),
            about: "compare bench reports median-vs-median, each line against its own noise band", flags: &[
            switch("--gate", "exit 1 if a hot bench slowed beyond its band or is missing"),
        ], ..VERB },
    ];
}

pub use table::VERBS;

/// One verb's help: its synopsis, what it does, and its flags.
fn help(verb: &Verb) -> String {
    let synopsis = format!("lockss-sim {} {}", verb.path, verb.operands);
    let mut out = format!("{}\n    {}\n", synopsis.trim_end(), verb.about);
    for flag in verb.flags {
        let name = format!("{} {}", flag.name, flag.arg);
        out += &format!("    {:<22} {}\n", name.trim_end(), flag.help);
    }
    for line in verb.more.map(|more| more()).iter().flat_map(|m| m.lines()) {
        out += &format!("    {line}\n");
    }
    out
}

/// The help of every verb whose first word is `word`, or of every verb.
fn helps(word: Option<&str>) -> String {
    let family = VERBS
        .iter()
        .filter(|v| word.is_none_or(|w| v.path.split(' ').next() == Some(w)));
    family.map(help).collect::<Vec<_>>().join("\n")
}

/// The whole command reference: `lockss-sim --help`.
fn usage() -> String {
    let header = "usage: lockss-sim <command> [operands] [options]  (every command takes --help)";
    format!("{header}\n\n{}", helps(None))
}

/// A command line that runs nothing: a mistake (exit 2) or a request for
/// help (exit 0).
#[derive(Debug)]
pub struct Misuse {
    /// What is wrong with the command line; `None` when it asked for `--help`.
    pub problem: Option<String>,
    /// The help of the verb (or verb family) it named, else the whole usage.
    pub usage: String,
}

/// A flag's checked value.
#[derive(Clone, Debug)]
enum Value {
    Text,
    Nums(Vec<u64>),
    Scale(Scale),
}

impl Ty {
    /// Checks `raw` as the value of `flag`; the error names both.
    fn parse(self, flag: &str, raw: &str) -> Result<Value, String> {
        let wants = |what: &str| format!("{flag} wants {what}, got '{raw}'");
        let named = |e: String| format!("{flag}: {e}");
        let budget = |b: &str| b.trim().parse().ok().filter(|b: &u32| *b > 0);
        Ok(match self {
            Ty::Switch | Ty::Text => Value::Text,
            Ty::Num(what) => Value::Nums(vec![raw.parse().map_err(|_| wants(what))?]),
            Ty::Positive => match raw.parse() {
                Ok(n) if n > 0 => Value::Nums(vec![n]),
                _ => return Err(wants("a positive integer")),
            },
            Ty::Days => match (raw.parse(), Duration::max_count(Duration::DAY)) {
                (Ok(n), max) if (1..=max).contains(&n) => Value::Nums(vec![n]),
                (_, max) => return Err(wants(&format!("a positive day count of at most {max}"))),
            },
            Ty::SeedCount => match raw.parse() {
                Ok(k) if (1..=MAX_SEEDS).contains(&k) => Value::Nums(vec![k]),
                _ => return Err(wants(&format!("a seed count from 1 to {MAX_SEEDS}"))),
            },
            Ty::Seeds => Value::Nums(parse_seed_range(raw).map_err(|e| wants(&e))?),
            Ty::Budgets => match raw.split(',').map(|b| budget(b).map(u64::from)).collect() {
                Some(budgets) => Value::Nums(budgets),
                None => return Err(wants("positive integers, e.g. 1,2,4,8")),
            },
            Ty::Shard => {
                let (index, count) = parse_shard_arg(raw).map_err(named)?;
                Value::Nums(vec![index, count])
            }
            Ty::Scale => Value::Scale(Scale::parse(raw).map_err(named)?),
        })
    }
}

/// A checked command line: the verb, its operands and its flag values.
#[derive(Debug)]
pub struct Invocation {
    pub verb: &'static Verb,
    pub operands: Vec<String>,
    /// `--scale`, else `default`.
    pub scale: Scale,
    given: Vec<(&'static str, String, Value)>,
}

impl Invocation {
    fn value(&self, flag: &str) -> Option<&Value> {
        let mut given = self.given.iter().filter(|(name, ..)| *name == flag);
        given.next().map(|(.., value)| value)
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// `flag`'s value as written.
    pub fn text(&self, flag: &str) -> Option<&str> {
        let mut given = self.given.iter().filter(|(name, ..)| *name == flag);
        given.next().map(|(_, raw, _)| raw.as_str())
    }

    /// The numbers of a numeric, seeds, budgets or shard `flag`.
    pub fn nums(&self, flag: &str) -> Option<&[u64]> {
        match self.value(flag)? {
            Value::Nums(nums) => Some(nums),
            _ => unreachable!("{flag} is not numeric in cli::VERBS"),
        }
    }

    /// A numeric `flag`'s value.
    pub fn num(&self, flag: &str) -> Option<u64> {
        self.nums(flag).map(|nums| nums[0])
    }

    /// The given flags with their values, as written and in order, less
    /// those named in `except`: this invocation's options, ready to be
    /// repeated on another command line.
    pub fn flags_except(&self, except: &[&str]) -> Vec<String> {
        let kept = self
            .given
            .iter()
            .filter(|(name, ..)| !except.contains(name));
        kept.flat_map(|(name, raw, _)| {
            let switch = self
                .verb
                .flags
                .iter()
                .any(|f| f.name == *name && f.arg.is_empty());
            std::iter::once(name.to_string()).chain((!switch).then(|| raw.clone()))
        })
        .collect()
    }
}

/// Parses a command line (without the program name) against [`VERBS`].
pub fn parse(argv: &[String]) -> Result<Invocation, Misuse> {
    let asked = argv.iter().any(|a| a == "--help");
    let first = argv.first().map_or("", String::as_str);
    let two = argv.get(1).map(|second| format!("{first} {second}"));
    let named = VERBS.iter().find(|v| Some(v.path) == two.as_deref());
    let Some(verb) = named.or_else(|| VERBS.iter().find(|v| v.path == first)) else {
        let family = VERBS
            .iter()
            .any(|v| v.path.starts_with(&format!("{first} ")));
        let problem = match (asked, family, argv.get(1)) {
            (true, ..) => None,
            (_, false, _) if first.is_empty() => Some("missing command".to_string()),
            (_, false, _) => Some(format!("unknown command '{first}'")),
            (_, true, Some(word)) => Some(format!("unknown {first} subcommand '{word}'")),
            (_, true, None) => Some(format!("{first} wants a subcommand")),
        };
        let usage = if family { helps(Some(first)) } else { usage() };
        return Err(Misuse { problem, usage });
    };
    let usage = help(verb);
    if asked {
        return Err(Misuse {
            problem: None,
            usage,
        });
    }
    let args = &argv[verb.path.split(' ').count()..];
    invocation(verb, args).map_err(|problem| Misuse {
        problem: Some(format!("{}: {problem}", verb.path)),
        usage,
    })
}

/// Checks `args`, the words after the verb's path, against the verb's row.
fn invocation(verb: &'static Verb, args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation {
        verb,
        operands: Vec::new(),
        scale: Scale::Default,
        given: Vec::new(),
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            inv.operands.push(arg.clone());
            continue;
        }
        let Some(flag) = verb.flags.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag '{arg}'"));
        };
        if inv.switch(flag.name) {
            return Err(format!("{arg} given twice"));
        }
        let raw = match (flag.ty, args.next_if(|_| !matches!(flag.ty, Ty::Switch))) {
            (Ty::Switch, _) => "",
            (_, Some(raw)) if !raw.starts_with("--") => raw,
            (_, got) => {
                let got = got.map(|v| format!(", got flag '{v}'")).unwrap_or_default();
                return Err(format!("{arg} wants {}{got}", flag.arg));
            }
        };
        let value = flag.ty.parse(flag.name, raw)?;
        inv.given.push((flag.name, raw.to_string(), value));
    }

    let (min, max) = match verb.instead {
        Some(flag) if inv.switch(flag) => (0, 0),
        _ => verb.count,
    };
    if inv.operands.len() < min {
        return Err(format!("missing {}", verb.operands));
    }
    if let Some(surplus) = inv.operands.get(max) {
        return Err(format!("unexpected operand '{surplus}'"));
    }
    inv.scale = match inv.value("--scale") {
        Some(Value::Scale(scale)) => *scale,
        _ => Scale::Default,
    };
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{jobfile, DispatchPlan};
    use std::path::Path;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_table_is_well_formed() {
        for (i, verb) in VERBS.iter().enumerate() {
            assert!(
                VERBS[..i].iter().all(|v| v.path != verb.path),
                "{}",
                verb.path
            );
            assert!(verb.count.0 <= verb.count.1, "{}", verb.path);
            let has = |name: &str| verb.flags.iter().any(|f| f.name == name);
            assert!(verb.instead.is_none_or(has), "{}", verb.path);
            for (j, flag) in verb.flags.iter().enumerate() {
                let what = format!("{} {}", verb.path, flag.name);
                assert!(
                    flag.name.starts_with("--") && flag.name != "--help",
                    "{what}"
                );
                assert!(
                    verb.flags[..j].iter().all(|f| f.name != flag.name),
                    "{what}"
                );
                assert_eq!(flag.arg.is_empty(), matches!(flag.ty, Ty::Switch), "{what}");
            }
        }
    }

    #[test]
    fn values_come_back_typed() {
        let line = "sweep baseline --seeds 3..5 --shards 2 --fresh --scale quick --jobfile j";
        let inv = parse(&argv(line)).unwrap();
        assert_eq!(
            (inv.verb.path, &inv.operands[..]),
            ("sweep", &argv("baseline")[..])
        );
        assert_eq!(
            (inv.nums("--seeds"), inv.text("--seeds")),
            (Some(&[3, 4, 5][..]), Some("3..5"))
        );
        assert_eq!((inv.num("--shards"), inv.num("--threads")), (Some(2), None));
        assert!(inv.switch("--fresh") && !inv.switch("--json"));
        assert_eq!(inv.scale, Scale::Quick);
        assert_eq!(
            inv.flags_except(&["--jobfile", "--shards"]),
            argv("--seeds 3..5 --fresh --scale quick")
        );
        let bench = parse(&argv("bench diff a b c --gate")).unwrap();
        assert_eq!(bench.operands, argv("a b c"));
        assert!(bench.switch("--gate"));
        let recovery = parse(&argv("sweep recovery --budgets 2,30")).unwrap();
        assert_eq!(recovery.nums("--budgets"), Some(&[2, 30][..]));
        let shard = parse(&argv("sweep x --shard 2/8")).unwrap();
        assert_eq!(shard.nums("--shard"), Some(&[2, 8][..]));
        assert!(parse(&argv("run --file c.json"))
            .unwrap()
            .operands
            .is_empty());
    }

    /// The kinds of misuse the end-to-end table in `tests/cli.rs` does not
    /// drive: operand counts and each value type's own check.
    #[test]
    fn operand_counts_and_value_types_are_checked() {
        for (line, needle) in [
            ("describe", "describe: missing <name>"),
            ("describe a b", "unexpected operand 'b'"),
            ("run --file c.json x", "unexpected operand 'x'"),
            ("trace diff a", "missing <a> <b>"),
            ("run x --json --json", "--json given twice"),
            (
                "fuzz --seeds 5..1",
                "--seeds wants A..B with A <= B, got '5..1'",
            ),
            (
                "sweep x --seeds 0",
                "--seeds wants at least one seed, got '0'",
            ),
            (
                "run x --seeds 0",
                "--seeds wants a seed count from 1 to 1000000, got '0'",
            ),
            (
                "sweep recovery --period 0",
                "--period wants a positive day count of at most 213503982334, got '0'",
            ),
            (
                "sweep recovery --budgets 2,x",
                "--budgets wants positive integers",
            ),
            ("bench diff a", "missing <base> <new>..."),
            ("sweep x --shard 3", "--shard: '3' is not of the form i/N"),
            ("frob", "unknown command 'frob'"),
            ("bench", "bench wants a subcommand"),
        ] {
            let misuse = parse(&argv(line)).expect_err(line);
            let problem = misuse
                .problem
                .unwrap_or_else(|| panic!("{line}: not a misuse"));
            assert!(problem.contains(needle), "{line}: {problem}");
        }
    }

    #[test]
    fn help_is_rendered_from_the_table() {
        let export = VERBS.iter().find(|v| v.path == "trace export").unwrap();
        let asked = parse(&argv("trace export t.bin --help")).unwrap_err();
        assert_eq!((asked.problem, asked.usage), (None, help(export)));
        let family = parse(&argv("trace --help")).unwrap_err();
        assert!(family.problem.is_none() && family.usage.contains(&help(export)));
        assert_eq!(parse(&argv("--help")).unwrap_err().usage, usage());
        for verb in VERBS {
            assert!(usage().contains(&help(verb)));
            for flag in verb.flags {
                assert!(
                    help(verb).contains(flag.name),
                    "{} {}",
                    verb.path,
                    flag.name
                );
            }
        }
    }

    /// A workspace file, read at test time.
    fn doc(path: &str) -> String {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The README's command reference is exactly `lockss-sim --help`.
    #[test]
    fn readme_command_reference_is_the_rendered_usage() {
        let readme = doc("README.md");
        let block = readme
            .split_once("<!-- cli-usage:begin -->\n")
            .and_then(|(_, rest)| rest.split_once("<!-- cli-usage:end -->"))
            .map(|(block, _)| block)
            .expect("README carries the cli-usage markers");
        assert_eq!(
            block,
            format!("```text\n{}```\n", usage()),
            "README command reference is stale: put `lockss-sim --help` between the markers"
        );
    }

    /// Every `lockss-sim` command line in `text`: on a code line, what
    /// follows `lockss-sim -- ` (through cargo) or `/lockss-sim ` (a built
    /// binary) up to a shell operator; in Markdown prose, an inline code
    /// span that starts with `lockss-sim ` or holds `lockss-sim -- `.
    /// Backslash continuations are joined, and `<placeholder>`, `$var` and
    /// glob operands become `1`.
    fn invocations(text: &str, markdown: bool) -> Vec<Vec<String>> {
        let text = text.replace("\\\n", " ");
        let (mut code, mut prose, mut fenced) = (Vec::new(), String::new(), false);
        for line in text.lines() {
            if markdown && line.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if fenced || !markdown {
                code.push(line);
            } else {
                prose = prose + " " + line;
            }
        }
        let prose: Vec<&str> = prose.split_whitespace().collect();
        let prose = prose.join(" ");
        let spans = prose.split('`').skip(1).step_by(2).filter_map(|span| {
            span.strip_prefix("lockss-sim ")
                .or_else(|| span.split_once("lockss-sim -- ").map(|(_, rest)| rest))
        });
        let lines = code.iter().flat_map(|line| {
            let starts = ["lockss-sim -- ", "/lockss-sim "];
            starts
                .into_iter()
                .filter_map(|start| line.split_once(start).map(|(_, rest)| rest))
        });
        spans.chain(lines).map(command).collect()
    }

    fn command(line: &str) -> Vec<String> {
        let (mut plain, mut rest) = (String::new(), line);
        while let Some((head, tail)) = rest.split_once('<') {
            plain = plain + head + "1";
            rest = tail.split_once('>').map_or("", |(_, after)| after);
        }
        plain += rest;
        let ops = ["|", ">", ")", ";", "&&", " #"];
        let end = ops
            .iter()
            .filter_map(|op| plain.find(op))
            .min()
            .unwrap_or(plain.len());
        let tokens = plain[..end]
            .split_whitespace()
            .map(|t| t.trim_matches(['"', '\'']));
        tokens
            .map(|t| if t.contains(['$', '*']) { "1" } else { t }.to_string())
            .collect()
    }

    /// Every command line the documentation shows, and every one the
    /// sweep fabric writes for its workers, parses.
    #[test]
    fn documented_and_generated_command_lines_parse() {
        let mut commands = Vec::new();
        for path in [
            "README.md",
            "ARCHITECTURE.md",
            "VALIDATION.md",
            "docs/FORMATS.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            commands.extend(invocations(&doc(path), true));
        }
        commands.extend(invocations(&doc(".github/workflows/ci.yml"), false));
        let bin = doc("crates/experiments/src/bin/lockss-sim.rs");
        let module_docs: Vec<&str> = bin.lines().filter_map(|l| l.strip_prefix("//!")).collect();
        commands.extend(invocations(&module_docs.join("\n"), true));
        let documented = commands.len();
        assert!(
            documented > 80,
            "only {documented} documented command lines found"
        );

        for line in [
            "sweep baseline --scale quick --seeds 1..8 --threads 2 --jobfile j --shards 3",
            "sweep baseline --jobfile j --telemetry results/tele --seeds 8 --shards 3 --fresh",
        ] {
            let inv = parse(&argv(line)).unwrap();
            let plan = DispatchPlan {
                scenario: inv.operands[0].clone(),
                scale: inv.scale.label().into(),
                campaign: inv.nums("--seeds").unwrap().to_vec(),
                shards: inv.num("--shards").unwrap(),
                flags: inv.flags_except(&["--jobfile", "--shards"]),
            };
            commands.extend((1..=plan.shards).map(|index| plan.shard_args(index)));
            let jobs = jobfile(&plan, Path::new("lockss-sim")).unwrap();
            let jobs = jobs
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'));
            commands.extend(
                jobs.map(|line| line.split_whitespace().skip(1).map(String::from).collect()),
            );
        }
        assert_eq!(commands.len(), documented + 2 * (3 + 4));

        let failures: Vec<String> = commands
            .iter()
            .filter_map(|argv| Some(format!("{argv:?}: {}", parse(argv).err()?.problem?)))
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
