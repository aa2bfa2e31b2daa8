//! Bench-report parsing and comparison: the perf-trajectory gate.
//!
//! `results/BENCH_<group>.json` files (written by [`crate::Harness`]) and
//! the merged trajectory anchors (`results/BENCH_opt7.json`, which wraps
//! per-group reports in a `groups` array) are parsed by the workspace's
//! one JSON grammar (`lockss_sim::json`; offline dependency policy: no
//! `serde`), then compared median against median. Each line gets one
//! noise band — the larger side's interquartile range over its median,
//! never below [`FLOOR`] — and the band does both jobs:
//!
//! - a line is *marked* faster or SLOWER when its median moved beyond it;
//! - the CI gate ([`DiffReport::gate_failures`]) fails when one of the
//!   [`GATED_BENCHES`] slowed beyond it, or went missing, so the
//!   trajectory can only ratchet forward.
//!
//! Anchors recorded before `BENCH_opt7.json` carry mean/min/max, not
//! quartiles; they are refused with an error naming `median_ns`, not
//! converted.

use std::fmt;

/// One benchmark's parsed statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedBench {
    pub name: String,
    pub median_ns: f64,
    pub q1_ns: f64,
    pub q3_ns: f64,
}

impl ParsedBench {
    /// Relative spread of the samples, `(q3 - q1) / median`.
    fn spread(&self) -> f64 {
        if self.median_ns <= 0.0 {
            return 0.0;
        }
        (self.q3_ns - self.q1_ns).max(0.0) / self.median_ns
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
    let error = |message: String| ParseError { message, at: 0 };
    let results = field(group, "results")
        .and_then(|r| r.as_array("results").ok())
        .ok_or_else(|| error("report has no 'results' array".to_string()))?;
    for r in results {
        let name = field(r, "name").and_then(|n| n.as_str("name").ok());
        let stat = |key: &str| field(r, key).and_then(|f| f.as_f64(key).ok());
        match (name, stat("median_ns"), stat("q1_ns"), stat("q3_ns")) {
            (Some(name), Some(median_ns), Some(q1_ns), Some(q3_ns)) => out.push(ParsedBench {
                name: name.to_string(),
                median_ns,
                q1_ns,
                q3_ns,
            }),
            (name, ..) => {
                return Err(error(format!(
                    "result '{}' lacks name/median_ns/q1_ns/q3_ns (anchors before \
                     BENCH_opt7.json carry mean/min/max; compare against BENCH_opt7.json)",
                    name.unwrap_or("?")
                )))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// The narrowest band: a median move within ±30% is never marked or
/// gated, whatever the quartiles claim. Sized from measurement — the
/// largest gated-line move across three fresh full runs against the
/// anchor, rounded up to the next 5% (ARCHITECTURE.md, "Measuring").
pub const FLOOR: f64 = 0.30;

/// One benchmark's baseline-vs-new comparison.
#[derive(Clone, Debug)]
pub struct BenchDelta {
    /// Benchmark name (exact match between the two reports).
    pub name: String,
    /// Baseline median, nanoseconds.
    pub base_ns: f64,
    /// New median, nanoseconds.
    pub new_ns: f64,
    /// `new / base`: below 1 is a speedup.
    pub ratio: f64,
    /// Relative noise band: the larger side's `(q3 - q1) / median`,
    /// floored at [`FLOOR`].
    pub band: f64,
}

impl BenchDelta {
    /// True if the median slowed beyond the band.
    pub fn slower(&self) -> bool {
        self.ratio > 1.0 + self.band
    }

    /// The table's mark: `faster` or `SLOWER` beyond the band, nothing
    /// inside it.
    pub fn mark(&self) -> &'static str {
        if self.slower() {
            "SLOWER"
        } else if self.ratio < 1.0 - self.band {
            "faster"
        } else {
            ""
        }
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

impl DiffReport {
    /// Why `--gate` fails, one line per reason: each gated benchmark that
    /// slowed beyond its band, and each gated baseline benchmark the new
    /// reports lack. Empty means the gate passes.
    pub fn gate_failures(&self) -> Vec<String> {
        let gated = |name: &str| GATED_BENCHES.iter().any(|p| name_matches(p, name));
        let slowed = self.deltas.iter().filter(|d| gated(&d.name) && d.slower());
        let slowed = slowed.map(|d| {
            let pct = |x: f64| x * 100.0;
            format!(
                "{} slowed {:+.1}% (band ±{:.1}%)",
                d.name,
                pct(d.ratio - 1.0),
                pct(d.band)
            )
        });
        let missing = self.missing.iter().filter(|n| gated(n));
        let missing = missing.map(|n| format!("gated benchmark '{n}' missing from the new report"));
        slowed.chain(missing).collect()
    }
}

/// Compares baseline and new benchmark lists by exact name.
pub fn diff_benches(base: &[ParsedBench], new: &[ParsedBench]) -> DiffReport {
    let mut report = DiffReport::default();
    for b in base {
        match new.iter().find(|n| n.name == b.name) {
            None => report.missing.push(b.name.clone()),
            Some(n) => report.deltas.push(BenchDelta {
                name: b.name.clone(),
                base_ns: b.median_ns,
                new_ns: n.median_ns,
                ratio: if b.median_ns > 0.0 {
                    n.median_ns / b.median_ns
                } else {
                    1.0
                },
                band: b.spread().max(n.spread()).max(FLOOR),
            }),
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
/// ends with `*` (`"world/scale*"`, `"fig*"`).
fn name_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    }
}

/// The hot benches the CI regression gate protects, as name patterns.
pub const GATED_BENCHES: [&str; 4] = ["world/simulate*", "world/scale*", "fig*", "run/untraced"];

#[cfg(test)]
mod tests {
    use super::*;

    /// A line with median `m` and quartiles 1% either side.
    fn bench(name: &str, m: f64) -> ParsedBench {
        ParsedBench {
            name: name.to_string(),
            median_ns: m,
            q1_ns: m * 0.99,
            q3_ns: m * 1.01,
        }
    }

    #[test]
    fn parses_flat_report() {
        let text = r#"{"group": "protocol", "results": [
            {"name": "a/b", "iters": 10, "samples": 15,
             "median_ns": 100.0, "q1_ns": 99.0, "q3_ns": 101.0,
             "throughput_bytes": null}]}"#;
        let parsed = parse_report(text).unwrap();
        assert_eq!(parsed, vec![bench("a/b", 100.0)]);
    }

    #[test]
    fn parses_merged_anchor() {
        let text = r#"{"note": "x", "recorded": "2026-10-15", "groups": [
            {"group": "g1", "results": [{"name": "a", "median_ns": 1.0, "q1_ns": 1.0, "q3_ns": 1.0}]},
            {"group": "g2", "results": [{"name": "b", "median_ns": 2.0, "q1_ns": 2.0, "q3_ns": 2.0}]}]}"#;
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

    /// The anchor CI gates against parses whole, with all six groups.
    #[test]
    fn parses_the_checked_in_baseline() {
        let text = include_str!("../../../results/BENCH_opt7.json");
        let parsed = parse_report(text).unwrap();
        assert!(parsed.len() >= 40, "got {}", parsed.len());
        for name in [
            "crypto/sha256/1048576B",
            "run/untraced",
            "run/instruments-on",
        ] {
            assert!(parsed.iter().any(|b| b.name == name), "{name}");
        }
        assert!(parsed
            .iter()
            .all(|b| b.q1_ns > 0.0 && b.q1_ns <= b.median_ns && b.median_ns <= b.q3_ns));
    }

    #[test]
    fn diff_flags_only_beyond_noise() {
        let base = vec![bench("x", 100.0), bench("y", 100.0)];
        let new = vec![bench("x", 103.0), bench("y", 150.0)];
        let report = diff_benches(&base, &new);
        assert_eq!(report.deltas[0].mark(), "", "3% is inside the floor");
        assert_eq!(report.deltas[1].mark(), "SLOWER", "50% is a real move");
        assert!((report.deltas[1].ratio - 1.5).abs() < 1e-9);
        // A wide interquartile range widens the band past the floor.
        let wide = ParsedBench {
            q1_ns: 70.0,
            q3_ns: 130.0,
            ..bench("y", 100.0)
        };
        let report = diff_benches(&[wide], &new[1..]);
        assert!((report.deltas[0].band - 0.6).abs() < 1e-9);
        assert_eq!(report.deltas[0].mark(), "", "+50% inside a ±60% band");
    }

    #[test]
    fn missing_and_added_are_reported() {
        let base = vec![bench("gone", 1.0), bench("kept", 1.0)];
        let new = vec![bench("kept", 1.0), bench("fresh", 1.0)];
        let report = diff_benches(&base, &new);
        assert_eq!(report.missing, vec!["gone"]);
        assert_eq!(report.added, vec!["fresh"]);
        assert_eq!(report.deltas.len(), 1);
    }

    #[test]
    fn gate_matches_patterns_and_threshold() {
        let base = vec![
            bench("world/scale 10k peers", 100.0),
            bench("world/simulate 30 days", 100.0),
            bench("engine/schedule+run", 100.0),
        ];
        let new = vec![
            bench("world/scale 10k peers", 140.0),
            bench("world/simulate 30 days", 100.0 * (1.0 + FLOOR * 0.9)),
            bench("engine/schedule+run", 300.0),
        ];
        let failures = diff_benches(&base, &new).gate_failures();
        // world/scale +40% trips; world/simulate is inside the floor; the
        // engine bench is not gated at all.
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("world/scale 10k peers slowed +40.0%"));
    }

    #[test]
    fn speedups_never_trip_the_gate() {
        let base = vec![bench("fig2/baseline point", 100.0)];
        let new = vec![bench("fig2/baseline point", 20.0)];
        let report = diff_benches(&base, &new);
        assert!(report.gate_failures().is_empty());
        assert_eq!(report.deltas[0].mark(), "faster");
    }

    /// The one band both marks a line and gates it: identical reports
    /// pass, a gated line beyond its band fails, an ungated line beyond
    /// its band is marked but passes, a gated line that vanished fails,
    /// and a pre-opt7 anchor is refused naming the field it lacks.
    #[test]
    fn one_band_marks_and_gates() {
        let base = vec![
            bench("fig2/baseline point", 100.0),
            bench("rng/exponential", 100.0),
        ];
        assert!(diff_benches(&base, &base).gate_failures().is_empty());

        let gated_slower = vec![bench("fig2/baseline point", 150.0), base[1].clone()];
        let report = diff_benches(&base, &gated_slower);
        assert_eq!(report.deltas[0].mark(), "SLOWER");
        let failures = report.gate_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("fig2/baseline point"), "{failures:?}");

        let ungated_slower = vec![base[0].clone(), bench("rng/exponential", 200.0)];
        let report = diff_benches(&base, &ungated_slower);
        assert_eq!(report.deltas[1].mark(), "SLOWER");
        assert!(report.gate_failures().is_empty());

        let failures = diff_benches(&base, &base[1..]).gate_failures();
        assert_eq!(
            failures,
            ["gated benchmark 'fig2/baseline point' missing from the new report"]
        );

        let err = parse_report(include_str!("../../../results/BENCH_opt6.json")).unwrap_err();
        assert!(err.message.contains("median_ns"), "{err}");
    }
}
