//! Bench-report parsing and comparison: the perf-trajectory gate.
//!
//! `results/BENCH_<group>.json` files (written by [`crate::Harness`]) and
//! the merged trajectory anchors (`results/BENCH_baseline.json`,
//! `results/BENCH_opt2.json`, which wrap per-group reports in a `groups`
//! array) are parsed by the workspace's one JSON grammar
//! (`lockss_sim::json`; offline dependency policy: no `serde`), then
//! compared mean-vs-mean with a noise band derived from each side's
//! min/max spread:
//!
//! - a benchmark is *flagged* when its mean moved by more than the band in
//!   either direction;
//! - the CI gate [`gate`] fails only on *regressions* beyond a threshold
//!   (25% in CI) on the named hot benches, so the trajectory can only
//!   ratchet forward.

use std::fmt;

/// One benchmark's parsed statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedBench {
    pub name: String,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

impl ParsedBench {
    /// Relative spread of the sample means, `(max - min) / mean`.
    fn rel_spread(&self) -> f64 {
        if self.mean_ns <= 0.0 {
            return 0.0;
        }
        (self.max_ns - self.min_ns).max(0.0) / self.mean_ns
    }
}

/// A parse failure with a byte offset for context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------
// Report extraction.
// ---------------------------------------------------------------------

use lockss_sim::json::{self, Value};

/// Convenience lookups over the shared reader's [`Value`] for the bench
/// schema (optional fields, `Option`-style access).
fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, f)| f),
        _ => None,
    }
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    field(v, key).and_then(|f| f.as_f64(key).ok())
}

/// Parses one report file's benchmarks, in file order.
///
/// Accepts both shapes in the trajectory: a flat per-group report
/// (`{"group": ..., "results": [...]}`) and a merged anchor
/// (`{..., "groups": [<flat report>, ...]}`).
pub fn parse_report(text: &str) -> Result<Vec<ParsedBench>, ParseError> {
    let root = json::parse(text).map_err(|e| ParseError {
        message: e.message,
        at: e.at,
    })?;
    let mut out = Vec::new();
    if let Some(groups) = field(&root, "groups").and_then(|g| g.as_array("groups").ok()) {
        for g in groups {
            extract_group(g, &mut out)?;
        }
    } else {
        extract_group(&root, &mut out)?;
    }
    Ok(out)
}

fn extract_group(group: &Value, out: &mut Vec<ParsedBench>) -> Result<(), ParseError> {
    let results = field(group, "results")
        .and_then(|r| r.as_array("results").ok())
        .ok_or(ParseError {
            message: "report has no 'results' array".to_string(),
            at: 0,
        })?;
    for r in results {
        match (
            field(r, "name").and_then(|n| n.as_str("name").ok()),
            field_f64(r, "mean_ns"),
            field_f64(r, "min_ns"),
            field_f64(r, "max_ns"),
        ) {
            (Some(name), Some(mean_ns), Some(min_ns), Some(max_ns)) => out.push(ParsedBench {
                name: name.to_string(),
                mean_ns,
                min_ns,
                max_ns,
            }),
            _ => {
                return Err(ParseError {
                    message: "result entry missing name/mean_ns/min_ns/max_ns".to_string(),
                    at: 0,
                })
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// The noise floor: deltas within ±5% are never flagged, whatever the
/// measured spreads claim (five samples understate tail noise).
pub const NOISE_FLOOR: f64 = 0.05;

/// One benchmark's baseline-vs-new comparison.
#[derive(Clone, Debug)]
pub struct BenchDelta {
    /// Benchmark name (exact match between the two reports).
    pub name: String,
    /// Baseline mean, nanoseconds.
    pub base_mean_ns: f64,
    /// New mean, nanoseconds.
    pub new_mean_ns: f64,
    /// `new / base`: below 1 is a speedup.
    pub ratio: f64,
    /// Relative noise band: the larger of the two runs' min–max spreads,
    /// floored at [`NOISE_FLOOR`].
    pub noise_band: f64,
}

impl BenchDelta {
    /// True if the mean moved beyond the noise band (either direction).
    pub fn significant(&self) -> bool {
        (self.ratio - 1.0).abs() > self.noise_band
    }

    /// True if this is a slowdown beyond `threshold` (e.g. `0.25` for
    /// +25%) *and* beyond the noise band.
    pub fn regressed_beyond(&self, threshold: f64) -> bool {
        self.ratio > 1.0 + threshold.max(self.noise_band)
    }
}

/// The outcome of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Benchmarks present in both reports, in baseline order.
    pub deltas: Vec<BenchDelta>,
    /// Baseline benchmarks absent from the new report.
    pub missing: Vec<String>,
    /// New benchmarks absent from the baseline (not an error: the
    /// trajectory grows).
    pub added: Vec<String>,
}

/// Compares baseline and new benchmark lists by exact name.
pub fn diff_benches(base: &[ParsedBench], new: &[ParsedBench]) -> DiffReport {
    let mut report = DiffReport::default();
    for b in base {
        match new.iter().find(|n| n.name == b.name) {
            None => report.missing.push(b.name.clone()),
            Some(n) => {
                let ratio = if b.mean_ns > 0.0 {
                    n.mean_ns / b.mean_ns
                } else {
                    1.0
                };
                report.deltas.push(BenchDelta {
                    name: b.name.clone(),
                    base_mean_ns: b.mean_ns,
                    new_mean_ns: n.mean_ns,
                    ratio,
                    noise_band: b.rel_spread().max(n.rel_spread()).max(NOISE_FLOOR),
                });
            }
        }
    }
    for n in new {
        if !base.iter().any(|b| b.name == n.name) {
            report.added.push(n.name.clone());
        }
    }
    report
}

/// True if `name` matches `pattern`: exact, or prefix when the pattern
/// ends with `*` (`"realproto/*"`, `"fig*"`).
pub fn name_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    }
}

/// The hot benches the CI regression gate protects, as name patterns.
pub const GATED_BENCHES: [&str; 5] = [
    "world/simulate*",
    "world/scale*",
    "realproto/*",
    "fig*",
    "run/untraced",
];

/// Returns the gated benches that regressed beyond `threshold`
/// (new/base > 1 + threshold, and beyond noise). An empty result means the
/// gate passes; a gated baseline bench *disappearing* is the caller's
/// problem (reported via [`DiffReport::missing`]).
pub fn gate<'r>(report: &'r DiffReport, patterns: &[&str], threshold: f64) -> Vec<&'r BenchDelta> {
    report
        .deltas
        .iter()
        .filter(|d| patterns.iter().any(|p| name_matches(p, &d.name)))
        .filter(|d| d.regressed_beyond(threshold))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str, mean: f64, min: f64, max: f64) -> ParsedBench {
        ParsedBench {
            name: name.to_string(),
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        }
    }

    #[test]
    fn parses_flat_report() {
        let text = r#"{"group": "protocol", "results": [
            {"name": "a/b", "iters": 10, "samples": 5,
             "mean_ns": 100.0, "min_ns": 95.0, "max_ns": 105.0,
             "throughput_bytes": null}]}"#;
        let parsed = parse_report(text).unwrap();
        assert_eq!(parsed, vec![bench("a/b", 100.0, 95.0, 105.0)]);
    }

    #[test]
    fn parses_merged_anchor() {
        let text = r#"{"note": "x", "recorded": "2026-07-28", "groups": [
            {"group": "g1", "results": [{"name": "a", "mean_ns": 1.0, "min_ns": 1.0, "max_ns": 1.0}]},
            {"group": "g2", "results": [{"name": "b", "mean_ns": 2.0, "min_ns": 2.0, "max_ns": 2.0}]}]}"#;
        let parsed = parse_report(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].name, "b");
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse_report("{\"group\": }").unwrap_err();
        assert!(err.at > 0, "{err}");
        assert!(parse_report("[1, 2]").is_err(), "no results array");
    }

    #[test]
    fn parses_the_checked_in_baseline() {
        let text = include_str!("../../../results/BENCH_baseline.json");
        let parsed = parse_report(text).unwrap();
        assert!(parsed.len() >= 20, "got {}", parsed.len());
        assert!(parsed.iter().any(|b| b.name == "crypto/sha256/1048576B"));
        assert!(parsed
            .iter()
            .all(|b| b.mean_ns > 0.0 && b.min_ns <= b.mean_ns && b.mean_ns <= b.max_ns));
    }

    #[test]
    fn diff_flags_only_beyond_noise() {
        let base = vec![
            bench("x", 100.0, 98.0, 102.0),
            bench("y", 100.0, 98.0, 102.0),
        ];
        let new = vec![
            bench("x", 103.0, 101.0, 105.0),
            bench("y", 150.0, 148.0, 152.0),
        ];
        let report = diff_benches(&base, &new);
        assert!(!report.deltas[0].significant(), "3% is inside the floor");
        assert!(report.deltas[1].significant(), "50% is a real move");
        assert!((report.deltas[1].ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn missing_and_added_are_reported() {
        let base = vec![bench("gone", 1.0, 1.0, 1.0), bench("kept", 1.0, 1.0, 1.0)];
        let new = vec![bench("kept", 1.0, 1.0, 1.0), bench("fresh", 1.0, 1.0, 1.0)];
        let report = diff_benches(&base, &new);
        assert_eq!(report.missing, vec!["gone"]);
        assert_eq!(report.added, vec!["fresh"]);
        assert_eq!(report.deltas.len(), 1);
    }

    #[test]
    fn gate_matches_patterns_and_threshold() {
        let base = vec![
            bench("realproto/full exchange (intact)", 100.0, 99.0, 101.0),
            bench("world/simulate 30 days", 100.0, 99.0, 101.0),
            bench("engine/schedule+run", 100.0, 99.0, 101.0),
        ];
        let new = vec![
            bench("realproto/full exchange (intact)", 140.0, 139.0, 141.0),
            bench("world/simulate 30 days", 110.0, 109.0, 111.0),
            bench("engine/schedule+run", 300.0, 299.0, 301.0),
        ];
        let report = diff_benches(&base, &new);
        let offenders = gate(&report, &GATED_BENCHES, 0.25);
        // realproto +40% trips; world/simulate +10% is under 25%; the
        // engine bench is not gated at all.
        assert_eq!(offenders.len(), 1);
        assert_eq!(offenders[0].name, "realproto/full exchange (intact)");
    }

    #[test]
    fn speedups_never_trip_the_gate() {
        let base = vec![bench("fig2/baseline point", 100.0, 99.0, 101.0)];
        let new = vec![bench("fig2/baseline point", 20.0, 19.0, 21.0)];
        let report = diff_benches(&base, &new);
        assert!(gate(&report, &GATED_BENCHES, 0.25).is_empty());
        assert!(report.deltas[0].significant());
    }
}
