//! The repo's end-to-end + per-layer benchmark. See `README.md`.
//!
//! ```text
//! lockss-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! lockss-benchmark [--seed N] [--seconds S] [--repeat K] [--out FILE]   # all workloads
//! lockss-benchmark --smoke                                             # every code path, quick
//! lockss-benchmark --compare <a.json> <b.json>
//! lockss-benchmark --list                                              # the catalogue
//! ```
//!
//! With `--workload` the last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero if any op failed.

mod alloc;
mod compare;
mod e2e;
mod host;
mod kernels;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::MetricDef;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Default `--seed` (the simulation seed; the comparison trace uses N+1).
const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// One workload run's settings.
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where the run may write: `benchmark/out/` beside the manifest.
    pub out_dir: PathBuf,
}

/// The one directory the benchmark writes to, inside its own package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result object: every metric of `defs`, by name, with its unit.
///
/// # Panics
///
/// Panics if a catalogue metric was not measured or is not finite — the
/// contract is that every listed metric is printed on every workload.
pub fn result_line(defs: &[MetricDef], values: &[(&'static str, f64)], ops: &run::Ops) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        assert!(value.is_finite(), "metric {} is {value}", d.name);
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    out.push_str("}}");
    out
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: lockss-benchmark [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      lockss-benchmark [--seed N] [--seconds S] [--repeat K] [--out FILE]\n\
         \x20      lockss-benchmark --smoke\n\
         \x20      lockss-benchmark --compare <a.json> <b.json>\n\
         \x20      lockss-benchmark --list",
        names.join("|")
    )
}

/// Parsed command line.
struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: u32,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        compare: None,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: bad value '{v}'");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(workloads::find(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| bad(v))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                cli.repeat = v.parse().ok().filter(|k| *k >= 1).ok_or_else(|| bad(v))?;
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--list" => cli.list = true,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// Prints the catalogue: workloads with their parts and why, metrics with
/// unit, direction, bound and the end-to-end metric each should move.
fn list() {
    for w in &workloads::WORKLOADS {
        let parts: Vec<String> = w
            .parts
            .iter()
            .map(|p| match p.days {
                Some(d) => format!("{} @ {} ({d} d)", p.scenario, p.scale.label()),
                None => format!("{} @ {}", p.scenario, p.scale.label()),
            })
            .collect();
        println!("workload {}: {}\n    {}", w.name, parts.join(", "), w.why);
    }
    for (kind, defs) in [
        ("end-to-end", &metrics::END_TO_END[..]),
        ("per-layer", &metrics::PER_LAYER[..]),
    ] {
        println!("\n{kind} metrics (name, unit, better, bound, moves)");
        for d in defs {
            let bound = d
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "  {:<46} {:<8} {:<6} {:<4} {}",
                d.name,
                d.unit,
                d.better.label(),
                bound,
                d.moves
            );
        }
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(args: &Args, trace: bool) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}{}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(trace),
        host::nproc(),
        if args.smoke { " (smoke)" } else { "" }
    );
    let mut ops = run::Ops::default();
    let line = if trace {
        let values = traced::run(args, &mut ops)?;
        result_line(&metrics::PER_LAYER, &values, &ops)
    } else {
        let values = e2e::run(args, &mut ops);
        result_line(&metrics::END_TO_END, &values, &ops)
    };
    println!("{line}");
    Ok(ops.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.list {
        list();
        Ok(true)
    } else if let Some((a, b)) = &cli.compare {
        compare::run(a, b)
    } else if let Some(workload) = cli.workload {
        let args = Args {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            smoke: cli.smoke,
            out_dir: out_dir(),
        };
        run_one(&args, cli.trace)
    } else {
        suite::run(cli.seed, cli.seconds, cli.repeat, cli.smoke, cli.out)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_sim::json;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&argv(
            "--workload scale-10k --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.unwrap().name, "scale-10k");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        let cli = parse(&[]).unwrap();
        assert!(cli.workload.is_none() && !cli.trace && !cli.smoke);
        assert_eq!(
            (cli.seed, cli.seconds, cli.repeat),
            (DEFAULT_SEED, DEFAULT_SECONDS, 1)
        );
    }

    #[test]
    fn rejects_typos_instead_of_defaulting() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--repeat 0",
            "--frobnicate",
            "--compare only-one.json",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_parses_with_the_shared_reader_and_lists_every_metric() {
        let values: Vec<(&'static str, f64)> = metrics::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let ops = run::Ops {
            attempted: 9,
            failed: 0,
        };
        let line = result_line(&metrics::END_TO_END, &values, &ops);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line is JSON");
        let root = doc.as_object("result").unwrap();
        let keys: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(json::get(root, "correct")
            .unwrap()
            .as_bool("correct")
            .unwrap());
        assert_eq!(
            json::get(root, "attempted")
                .unwrap()
                .as_u64("attempted")
                .unwrap(),
            9
        );
        let listed = json::get(root, "metrics")
            .unwrap()
            .as_object("metrics")
            .unwrap();
        assert_eq!(listed.len(), metrics::END_TO_END.len());
        let wall = json::get(listed, "wall_s")
            .unwrap()
            .as_object("wall_s")
            .unwrap();
        assert_eq!(
            json::get(wall, "value").unwrap().as_f64("value").unwrap(),
            2.5
        );
        assert_eq!(
            json::get(wall, "unit").unwrap().as_str("unit").unwrap(),
            "s"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_to_omit_a_metric() {
        result_line(
            &metrics::END_TO_END,
            &[("wall_s", 1.0)],
            &run::Ops::default(),
        );
    }
}
