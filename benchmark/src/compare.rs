//! `--compare <a.json> <b.json>`: two result files of the suite (parent
//! and change, or two sets of runs of one commit), one row per (metric,
//! workload), judged by the rule the benchmark's bounds were fixed for.

use std::path::Path;

use lockss_sim::json::{self, Value};

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Dist;
use crate::workloads::WORKLOADS;

/// One run of one workload, as the suite stored it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRec {
    pub workload: String,
    pub trace: bool,
    pub summary_digest: Option<String>,
    pub trace_hash: Option<String>,
    pub metrics: Vec<(String, f64)>,
}

/// How the change's runs of one metric read against the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// An exact count or digest that is identical on both sides.
    Equal,
    /// At least ten pairs, nine tenths of them won, and medians apart by
    /// more than the parent's own interquartile range.
    Better,
    /// The median is worse than the parent's by more than the bound.
    Worse,
    WithinBound,
    /// The spread on either side is wider than the bound and the runs
    /// overlap: not shown to be unchanged.
    Unresolved,
    /// A layer metric: it has no bound, only a delta.
    Unbounded,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub a: Dist,
    pub b: Dist,
    /// Share of the parent's median by which the change is worse
    /// (negative: better), signed by the metric's direction.
    pub worse_by: f64,
    /// `(change wins, parent wins)` over index-aligned pairs; ties count
    /// for neither.
    pub pairs: (usize, usize),
    pub verdict: Verdict,
}

/// True if `x` reads better than `y` for this metric.
fn beats(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Judges the change's runs `b` of one metric against the parent's `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (da, db) = (Dist::of(a), Dist::of(b));
    let diff = match def.better {
        Better::Lower => db.median - da.median,
        Better::Higher => da.median - db.median,
    };
    let worse_by = if da.median == 0.0 {
        0.0
    } else {
        diff / da.median.abs()
    };
    let mut pairs = (0, 0);
    for (&x, &y) in a.iter().zip(b) {
        if beats(def.better, y, x) {
            pairs.0 += 1;
        } else if beats(def.better, x, y) {
            pairs.1 += 1;
        }
    }
    let every = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| f(x, y)));
    let all_better = every(&|x, y| beats(def.better, y, x));
    let all_worse = every(&|x, y| beats(def.better, x, y));
    // A gain is claimed on at least ten pairs, nine tenths of them won.
    let n_pairs = a.len().min(b.len());
    let wins_nine_tenths = n_pairs >= 10 && pairs.0 * 10 >= n_pairs * 9;

    let verdict = if def.exact && a.iter().chain(b).all(|&x| x == a[0]) {
        Verdict::Equal
    } else {
        match def.bound {
            None => Verdict::Unbounded,
            Some(bound) => {
                if da.spread().max(db.spread()) > bound && !all_better && !all_worse {
                    Verdict::Unresolved
                } else if worse_by > bound {
                    Verdict::Worse
                } else if wins_nine_tenths && -diff > da.q3 - da.q1 {
                    Verdict::Better
                } else {
                    Verdict::WithinBound
                }
            }
        }
    };
    Row {
        a: da,
        b: db,
        worse_by,
        pairs,
        verdict,
    }
}

fn opt_str(obj: &[(String, Value)], key: &str) -> Option<String> {
    json::get_opt(obj, key)
        .and_then(|v| v.as_str(key).ok())
        .map(String::from)
}

/// Parses a result file written by the suite.
pub fn parse_results(text: &str) -> Result<Vec<RunRec>, String> {
    let doc = json::parse(text).map_err(|e| format!("{e:?}"))?;
    let root = doc.as_object("results")?;
    let mut runs = Vec::new();
    for run in json::get(root, "runs")?.as_array("runs")? {
        let run = run.as_object("run")?;
        let result = json::get(run, "result")?.as_object("result")?;
        let mut metrics = Vec::new();
        for (name, m) in json::get(result, "metrics")?.as_object("metrics")? {
            let value = json::get(m.as_object(name)?, "value")?.as_f64(name)?;
            metrics.push((name.clone(), value));
        }
        runs.push(RunRec {
            workload: json::get(run, "workload")?.as_str("workload")?.to_string(),
            trace: json::get(run, "trace")?.as_u64("trace")? == 1,
            summary_digest: opt_str(run, "summary_digest"),
            trace_hash: opt_str(run, "trace_hash"),
            metrics,
        });
    }
    Ok(runs)
}

/// Every run's value of one metric on one workload in one mode.
pub fn values(runs: &[RunRec], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Reads one of a run's digests.
type Pick = fn(&RunRec) -> &Option<String>;

/// The distinct digests a workload's runs printed, sorted.
fn distinct(runs: &[RunRec], workload: &str, pick: Pick) -> Vec<String> {
    let mut v: Vec<String> = runs
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| pick(r).clone())
        .collect();
    v.sort();
    v.dedup();
    v
}

fn load(path: &Path) -> Result<Vec<RunRec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_results(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(false)` if any end-to-end row is worse or a
/// digest differs.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("a = {}   b = {}", a_path.display(), b_path.display());
    let mut ok = true;
    for w in &WORKLOADS {
        println!("\n== {}", w.name);
        let digests: [(&str, Pick); 2] = [
            ("summary digest", |r| &r.summary_digest),
            ("trace hash", |r| &r.trace_hash),
        ];
        for (what, pick) in digests {
            let (da, db) = (distinct(&a, w.name, pick), distinct(&b, w.name, pick));
            if da.is_empty() && db.is_empty() {
                continue;
            }
            let same = da == db && da.len() == 1;
            ok &= same;
            println!("  {what}: {}", if same { "identical" } else { "DIFFERS" });
        }
        println!(
            "  {:<44} {:>13} {:>13} {:>8} {:>7} {:>7} {:>5}  verdict",
            "metric", "a median", "b median", "worse by", "a iqr", "b iqr", "pairs"
        );
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            for d in defs {
                let (va, vb) = (
                    values(&a, w.name, trace, d.name),
                    values(&b, w.name, trace, d.name),
                );
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let row = judge(d, &va, &vb);
                ok &= row.verdict != Verdict::Worse;
                println!(
                    "  {:<44} {:>13.6} {:>13.6} {:>+7.1}% {:>6.1}% {:>6.1}% {:>2}:{:<2}  {}{}",
                    d.name,
                    row.a.median,
                    row.b.median,
                    row.worse_by * 100.0,
                    row.a.spread() * 100.0,
                    row.b.spread() * 100.0,
                    row.pairs.0,
                    row.pairs.1,
                    row.verdict.label(),
                    d.bound
                        .map(|b| format!(" (bound {:.0}%, n {}/{})", b * 100.0, row.a.n, row.b.n))
                        .unwrap_or_default(),
                );
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: Option<f64>, exact: bool) -> MetricDef {
        MetricDef {
            name: "t",
            unit: "s",
            better,
            bound,
            exact,
            moves: "",
        }
    }

    /// A timing with a 10% bound.
    fn wall() -> MetricDef {
        def(Better::Lower, Some(0.1), false)
    }

    #[test]
    fn steady_and_close_is_within_bound() {
        let row = judge(
            &wall(),
            &[1.00, 1.01, 0.99, 1.00],
            &[1.02, 1.03, 1.01, 1.02],
        );
        assert_eq!(row.verdict, Verdict::WithinBound);
        assert!((row.worse_by - 0.02).abs() < 1e-9);
        assert_eq!(row.pairs, (0, 4));
    }

    #[test]
    fn past_the_bound_is_worse_and_direction_matters() {
        let row = judge(&wall(), &[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2]);
        assert_eq!(row.verdict, Verdict::Worse);
        let polls = def(Better::Higher, Some(0.1), false);
        let row = judge(&polls, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - 0.2).abs() < 1e-9);
        // Clearly faster, but three pairs are not the ten a claim needs.
        let row = judge(&polls, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]);
        assert_eq!((row.verdict, row.pairs), (Verdict::WithinBound, (3, 0)));
    }

    #[test]
    fn better_needs_nine_tenths_of_pairs_and_more_than_the_parents_iqr() {
        let a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99];
        let b: Vec<f64> = a.iter().map(|x| x - 0.06).collect();
        assert_eq!(judge(&wall(), &a, &b).verdict, Verdict::Better);
        // Same medians apart, but the change loses three pairs of ten.
        let mut mixed = b.clone();
        for i in [0, 3, 6] {
            mixed[i] = a[i] + 0.001;
        }
        assert_eq!(judge(&wall(), &a, &mixed).verdict, Verdict::WithinBound);
        // Wins every pair, but by less than the parent's own spread.
        let b: Vec<f64> = a.iter().map(|x| x - 0.005).collect();
        assert_eq!(judge(&wall(), &a, &b).verdict, Verdict::WithinBound);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [1.0, 1.3, 0.8, 1.2, 0.9];
        let b = [1.05, 1.25, 0.85, 1.1, 1.0];
        assert_eq!(judge(&wall(), &a, &b).verdict, Verdict::Unresolved);
        // Just as wide, but every run of the change beats every parent run.
        let a = [a, a].concat();
        let b = [[0.5, 0.7, 0.4, 0.6, 0.45]; 2].concat();
        assert_eq!(judge(&wall(), &a, &b).verdict, Verdict::Better);
    }

    #[test]
    fn exact_counts_compare_for_equality_and_layers_have_no_bound() {
        let events = def(Better::Lower, None, true);
        assert_eq!(
            judge(&events, &[5e6, 5e6], &[5e6, 5e6]).verdict,
            Verdict::Equal
        );
        assert_eq!(
            judge(&events, &[5e6, 5e6], &[4e6, 4e6]).verdict,
            Verdict::Unbounded
        );
        let bytes = def(Better::Lower, Some(0.01), true);
        assert_eq!(judge(&bytes, &[4.8], &[4.8]).verdict, Verdict::Equal);
        assert_eq!(judge(&bytes, &[4.8], &[5.2]).verdict, Verdict::Worse);
    }

    #[test]
    fn parses_what_the_suite_writes() {
        let text = r#"{"schema": "x", "seed": 1, "claim": null, "runs": [
          {"workload": "paper-baseline", "trace": 0, "round": 0, "exit_ok": true,
           "summary_digest": "abc", "trace_hash": null, "log": ["rep 1"],
           "result": {"correct": true, "attempted": 3, "failed": 0,
                      "metrics": {"wall_s": {"value": 2.5, "unit": "s"}}}}]}"#;
        let runs = parse_results(text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].summary_digest.as_deref(), Some("abc"));
        assert_eq!(runs[0].trace_hash, None);
        assert_eq!(values(&runs, "paper-baseline", false, "wall_s"), [2.5]);
        assert!(values(&runs, "paper-baseline", true, "wall_s").is_empty());
        assert!(parse_results("{\"runs\": 3}").is_err());
    }
}
