//! A tiny std-only benchmark harness (the offline dependency policy bans
//! `criterion`), plus the benchmarks under `benches/`:
//!
//! - `substrates`: event queue, RNG, network delay, schedule, damage sets;
//! - `protocol`: SHA-256, MBF prove/verify, sessions, the real-mode
//!   exchange, and whole-world simulation steps;
//! - `figures`: one smoke-scale benchmark per paper table/figure (the full
//!   sweeps are `lockss-sim figure <id>`);
//! - `trace`, `scale`, `obs`: the trace layer, 10k-peer worlds, and the
//!   metric handles.
//!
//! Each bench binary (`cargo bench --bench substrates`) prints a table and
//! writes `results/BENCH_<group>.json`:
//!
//! ```json
//! {"group": "substrates", "results": [
//!   {"name": "rng/exponential", "iters": 52000, "samples": 15,
//!    "median_ns": 19.3, "q1_ns": 19.1, "q3_ns": 19.8,
//!    "throughput_bytes": null}
//! ]}
//! ```
//!
//! Timing model: `bench*` only registers a line. [`Harness::finish`]
//! calibrates each line once — one call sizes its iteration count so a
//! sample lasts about `SAMPLE_BUDGET` — then runs [`ROUNDS`] rounds, each
//! taking one sample of every line in registration order. Slow clock
//! drift (frequency scaling, a noisy neighbour) so lands on every line
//! alike instead of on whichever line ran last, and two lines meant to be
//! compared (traced vs. untraced) are measured side by side. A line
//! reports the [`median`] and exclusive [`quartiles`] of its per-iteration
//! sample means; [`diff`] turns the interquartile range into the line's
//! noise band. No outlier rejection, no bootstrap: the benches exist to
//! keep regressions visible, not to publish numbers.

pub mod diff;

use lockss_sim::json::{Layout::Inline, Writer};
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Rounds per group, and so samples per line.
pub const ROUNDS: u32 = 15;

/// Wall-clock budget per sample; the calibration call picks an iteration
/// count so one sample lasts about this long.
const SAMPLE_BUDGET: Duration = Duration::from_millis(20);

/// Iteration-count ceiling per sample (guards against sub-nanosecond
/// routines spinning forever).
const MAX_ITERS: u64 = 10_000_000;

/// One line's measured statistics.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    pub samples: u32,
    /// Median and first/third quartiles of the per-sample mean iteration
    /// times, nanoseconds.
    pub median_ns: f64,
    pub q1_ns: f64,
    pub q3_ns: f64,
    /// Bytes processed per iteration, when the bench declares throughput.
    pub throughput_bytes: Option<u64>,
}

impl BenchResult {
    /// Throughput in MiB/s at the median, when declared.
    pub fn mib_per_sec(&self) -> Option<f64> {
        let bytes = self.throughput_bytes?;
        (self.median_ns > 0.0).then(|| bytes as f64 / (1 << 20) as f64 / (self.median_ns * 1e-9))
    }
}

/// A registered line: its sampler times `iters` iterations of the routine.
struct Line {
    name: String,
    bytes: Option<u64>,
    sample: Box<dyn FnMut(u64) -> Duration>,
}

/// A named group of lines; [`Harness::finish`] measures them and writes
/// the JSON report.
pub struct Harness {
    group: String,
    lines: Vec<Line>,
}

impl Harness {
    pub fn new(group: &str) -> Harness {
        println!("benchmark group: {group}");
        Harness {
            group: group.to_string(),
            lines: Vec::new(),
        }
    }

    /// Registers `f` as a line.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R + 'static) {
        self.register(name, None, f);
    }

    /// Registers `f` as a line reporting bytes-per-iteration throughput.
    pub fn bench_bytes<R>(&mut self, name: &str, bytes: u64, f: impl FnMut() -> R + 'static) {
        self.register(name, Some(bytes), f);
    }

    /// Registers `routine` run on a fresh `setup()` value each iteration
    /// (criterion's `iter_batched`); setup time is excluded by building
    /// inputs before the clock starts, in bounded batches so a cheap
    /// routine's calibrated iteration count never materializes millions
    /// of live setup values at once.
    pub fn bench_with_setup<T, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> T + 'static,
        mut routine: impl FnMut(T) -> R + 'static,
    ) {
        const SETUP_BATCH: u64 = 1_024;
        self.push(name, None, move |iters| {
            let mut elapsed = Duration::ZERO;
            let mut remaining = iters;
            while remaining > 0 {
                let n = remaining.min(SETUP_BATCH);
                let inputs: Vec<T> = (0..n).map(|_| setup()).collect();
                let t = Instant::now();
                for input in inputs {
                    black_box(routine(input));
                }
                elapsed += t.elapsed();
                remaining -= n;
            }
            elapsed
        });
    }

    fn register<R>(&mut self, name: &str, bytes: Option<u64>, mut f: impl FnMut() -> R + 'static) {
        self.push(name, bytes, move |iters| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed()
        });
    }

    fn push(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        sample: impl FnMut(u64) -> Duration + 'static,
    ) {
        self.lines.push(Line {
            name: name.to_string(),
            bytes,
            sample: Box::new(sample),
        });
    }

    /// Measures every line — calibration, then [`ROUNDS`] interleaved
    /// rounds — prints the table, writes `results/BENCH_<group>.json` (one
    /// line, timings to a tenth of a nanosecond) and returns the results
    /// in registration order.
    pub fn finish(mut self) -> Vec<BenchResult> {
        println!(
            "  {} line(s) x {ROUNDS} interleaved rounds",
            self.lines.len()
        );
        let iters: Vec<u64> = self
            .lines
            .iter_mut()
            .map(|line| calibrate((line.sample)(1)))
            .collect();
        let mut samples = vec![Vec::with_capacity(ROUNDS as usize); self.lines.len()];
        for _ in 0..ROUNDS {
            for ((line, &n), out) in self.lines.iter_mut().zip(&iters).zip(&mut samples) {
                out.push((line.sample)(n).as_nanos() as f64 / n as f64);
            }
        }
        let results: Vec<BenchResult> = self
            .lines
            .iter()
            .zip(iters)
            .zip(&samples)
            .map(|((line, iters), xs)| {
                let (q1_ns, q3_ns) = quartiles(xs);
                let r = BenchResult {
                    name: line.name.clone(),
                    iters,
                    samples: xs.len() as u32,
                    median_ns: median(xs),
                    q1_ns,
                    q3_ns,
                    throughput_bytes: line.bytes,
                };
                let rate = r.mib_per_sec().map(|mib| format!("  {mib:>9.1} MiB/s"));
                println!(
                    "  {:<44} {:>12}/iter  [{} .. {}]{}",
                    r.name,
                    fmt_ns(r.median_ns),
                    fmt_ns(q1_ns),
                    fmt_ns(q3_ns),
                    rate.unwrap_or_default()
                );
                r
            })
            .collect();

        let tenths = |ns: f64| (ns * 10.0).round() / 10.0;
        let mut w = Writer::new();
        w.object(Inline)
            .field("group", &self.group)
            .key("results")
            .array(Inline);
        for r in &results {
            w.object(Inline)
                .field("name", &r.name)
                .field("iters", r.iters)
                .field("samples", r.samples)
                .field("median_ns", tenths(r.median_ns))
                .field("q1_ns", tenths(r.q1_ns))
                .field("q3_ns", tenths(r.q3_ns))
                .field("throughput_bytes", r.throughput_bytes)
                .end();
        }
        let json = w.end().end().finish() + "\n";
        let dir = results_dir();
        let path = dir.join(format!("BENCH_{}.json", self.group));
        let write = fs::create_dir_all(dir)
            .and_then(|_| fs::File::create(&path))
            .and_then(|mut f| f.write_all(json.as_bytes()));
        match write {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        results
    }
}

/// The workspace-root `results/` directory (cargo runs benches with the
/// package directory as CWD, so a relative path would scatter reports).
fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Picks iterations-per-sample so one sample costs about [`SAMPLE_BUDGET`].
fn calibrate(one: Duration) -> u64 {
    if one >= SAMPLE_BUDGET {
        return 1;
    }
    let one_ns = one.as_nanos().max(1) as u64;
    (SAMPLE_BUDGET.as_nanos() as u64 / one_ns).clamp(1, MAX_ITERS)
}

/// `xs` sorted ascending.
fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistics of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every line has [`ROUNDS`] samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(xs, n=4)` uses. A single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A duration in nanoseconds at a readable unit: `842ns`, `19.30µs`,
/// `1.54ms`, `2.10s`.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn calibrate_bounds() {
        assert_eq!(calibrate(Duration::from_secs(1)), 1);
        assert_eq!(calibrate(SAMPLE_BUDGET), 1);
        let fast = calibrate(Duration::from_nanos(10));
        assert!(fast > 1_000 && fast <= MAX_ITERS);
        assert_eq!(calibrate(Duration::ZERO), MAX_ITERS);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 6.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn bench_produces_sane_stats_and_json() {
        let mut h = Harness::new("selftest");
        h.bench("noop-ish", || black_box(3u64.wrapping_mul(7)));
        h.bench_bytes("hash-ish", 1024, || {
            black_box([0u8; 1024].iter().map(|&b| b as u64).sum::<u64>())
        });
        let results = h.finish();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.q1_ns <= r.median_ns && r.median_ns <= r.q3_ns, "{r:?}");
            assert!(r.q1_ns > 0.0);
        }
        assert!(results[1].mib_per_sec().unwrap() > 0.0);
        let path = results_dir().join("BENCH_selftest.json");
        let json = fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"group\": \"selftest\""));
        assert!(json.contains("\"throughput_bytes\": 1024"));
        let _ = fs::remove_file(&path);
    }

    /// Every round samples every line once, in registration order: the
    /// call log, with consecutive calls of one line collapsed, alternates
    /// `a, b` once for calibration and once per round.
    #[test]
    fn rounds_interleave_the_lines() {
        let log: Rc<RefCell<Vec<&str>>> = Rc::default();
        let mut h = Harness::new("interleave");
        for name in ["a", "b"] {
            let log = log.clone();
            h.bench(name, move || {
                let mut log = log.borrow_mut();
                if log.last() != Some(&name) {
                    log.push(name);
                }
                std::thread::sleep(Duration::from_millis(1));
            });
        }
        let results = h.finish();
        let _ = fs::remove_file(results_dir().join("BENCH_interleave.json"));
        assert_eq!(*log.borrow(), ["a", "b"].repeat(ROUNDS as usize + 1));
        assert!(results.iter().all(|r| r.samples == ROUNDS));
    }
}
