//! A tiny std-only benchmark harness (the offline dependency policy bans
//! `criterion`), plus the benchmarks under `benches/`:
//!
//! - `substrates`: event queue, RNG, network delay, schedule, damage sets;
//! - `protocol`: SHA-256, MBF prove/verify, sessions, the real-mode
//!   exchange, and whole-world simulation steps;
//! - `figures`: one smoke-scale benchmark per paper table/figure (the full
//!   sweeps are `lockss-sim figure <id>`).
//!
//! Each bench binary (`cargo bench --bench substrates`) prints a table and
//! writes `results/BENCH_<group>.json`:
//!
//! ```json
//! {"group": "substrates", "results": [
//!   {"name": "rng/exponential", "iters": 52000, "samples": 5,
//!    "mean_ns": 19.3, "min_ns": 18.9, "max_ns": 20.1,
//!    "throughput_bytes": null}
//! ]}
//! ```
//!
//! Timing model: one calibration call sizes the per-sample iteration count
//! to roughly `SAMPLE_BUDGET`, then `SAMPLES` samples run back to back;
//! the statistics are over per-iteration sample means. This is deliberately
//! simpler than criterion — no outlier rejection, no bootstrap — because
//! the benches exist to keep regressions visible, not to publish numbers.

pub mod diff;

use lockss_sim::json::{Layout::Inline, Writer};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Wall-clock budget per sample; the calibration call picks an iteration
/// count so one sample lasts about this long.
const SAMPLE_BUDGET: Duration = Duration::from_millis(50);

/// Samples per benchmark.
const SAMPLES: u32 = 5;

/// Iteration-count ceiling per sample (guards against sub-nanosecond
/// routines spinning forever).
const MAX_ITERS: u64 = 10_000_000;

/// One benchmark's measured statistics.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    pub samples: u32,
    /// Mean/min/max of the per-sample mean iteration times, nanoseconds.
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    /// Bytes processed per iteration, when the bench declares throughput.
    pub throughput_bytes: Option<u64>,
}

impl BenchResult {
    /// Throughput in MiB/s, when declared.
    pub fn mib_per_sec(&self) -> Option<f64> {
        let bytes = self.throughput_bytes?;
        if self.mean_ns <= 0.0 {
            return None;
        }
        Some(bytes as f64 / (1 << 20) as f64 / (self.mean_ns * 1e-9))
    }
}

/// A named group of benchmarks; collects results and writes the JSON
/// report on [`Harness::finish`].
pub struct Harness {
    group: String,
    results: Vec<BenchResult>,
}

impl Harness {
    pub fn new(group: &str) -> Harness {
        println!("benchmark group: {group}");
        Harness {
            group: group.to_string(),
            results: Vec::new(),
        }
    }

    /// Benchmarks `f`, timing `iters` calls per sample.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        self.run(name, None, &mut f);
    }

    /// Benchmarks `f`, reporting bytes-per-iteration throughput.
    pub fn bench_bytes<R>(&mut self, name: &str, bytes: u64, mut f: impl FnMut() -> R) {
        self.run(name, Some(bytes), &mut f);
    }

    /// Benchmarks two routines interleaved — `a, b, a, b, …` with
    /// per-call timing — so slow clock drift (thermal throttling,
    /// frequency scaling) affects both equally and cancels out of their
    /// *difference*. This is the right tool when the quantity of interest
    /// is an overhead ratio between two variants of the same work (e.g.
    /// traced vs. untraced runs); sequential `bench` calls can easily show
    /// a 10% phantom delta from drift alone. Per-call `Instant` overhead
    /// is tens of nanoseconds, so keep the routines at ≥ ~100µs per call.
    pub fn bench_pair<RA, RB>(
        &mut self,
        name_a: &str,
        mut a: impl FnMut() -> RA,
        name_b: &str,
        mut b: impl FnMut() -> RB,
    ) {
        let one = {
            let t = Instant::now();
            std::hint::black_box(a());
            t.elapsed()
        };
        // Each interleaved iteration runs both routines; halve the budget.
        let iters = calibrate(one + one).max(1);
        let mut means_a = Vec::with_capacity(SAMPLES as usize);
        let mut means_b = Vec::with_capacity(SAMPLES as usize);
        for _ in 0..SAMPLES {
            let mut elapsed_a: u128 = 0;
            let mut elapsed_b: u128 = 0;
            for _ in 0..iters {
                let t = Instant::now();
                std::hint::black_box(a());
                elapsed_a += t.elapsed().as_nanos();
                let t = Instant::now();
                std::hint::black_box(b());
                elapsed_b += t.elapsed().as_nanos();
            }
            means_a.push(elapsed_a as f64 / iters as f64);
            means_b.push(elapsed_b as f64 / iters as f64);
        }
        self.record(name_a, iters, None, &means_a);
        self.record(name_b, iters, None, &means_b);
    }

    /// Benchmarks `routine` on a fresh `setup()` value each iteration
    /// (criterion's `iter_batched`); setup time is excluded by building
    /// inputs before the clock starts, in bounded batches so a cheap
    /// routine's calibrated iteration count never materializes millions
    /// of live setup values at once.
    pub fn bench_with_setup<T, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) {
        const SETUP_BATCH: u64 = 1_024;
        // Calibrate on one input.
        let one = {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            t.elapsed()
        };
        let iters = calibrate(one);
        let mut sample_means = Vec::with_capacity(SAMPLES as usize);
        for _ in 0..SAMPLES {
            let mut elapsed_ns: u128 = 0;
            let mut remaining = iters;
            while remaining > 0 {
                let n = remaining.min(SETUP_BATCH);
                let inputs: Vec<T> = (0..n).map(|_| setup()).collect();
                let t = Instant::now();
                for input in inputs {
                    std::hint::black_box(routine(input));
                }
                elapsed_ns += t.elapsed().as_nanos();
                remaining -= n;
            }
            sample_means.push(elapsed_ns as f64 / iters as f64);
        }
        self.record(name, iters, None, &sample_means);
    }

    fn run<R>(&mut self, name: &str, bytes: Option<u64>, f: &mut impl FnMut() -> R) {
        let one = {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        };
        let iters = calibrate(one);
        let mut sample_means = Vec::with_capacity(SAMPLES as usize);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            sample_means.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.record(name, iters, bytes, &sample_means);
    }

    fn record(&mut self, name: &str, iters: u64, bytes: Option<u64>, sample_means: &[f64]) {
        let mean = sample_means.iter().sum::<f64>() / sample_means.len() as f64;
        let min = sample_means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sample_means.iter().cloned().fold(0.0f64, f64::max);
        let result = BenchResult {
            name: name.to_string(),
            iters,
            samples: SAMPLES,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
            throughput_bytes: bytes,
        };
        match result.mib_per_sec() {
            Some(rate) => println!("  {name:<44} {:>12}/iter  {rate:>9.1} MiB/s", fmt_ns(mean)),
            None => println!(
                "  {name:<44} {:>12}/iter  [{} .. {}]",
                fmt_ns(mean),
                fmt_ns(min),
                fmt_ns(max)
            ),
        }
        self.results.push(result);
    }

    /// Writes `results/BENCH_<group>.json` — one line, timings to a tenth
    /// of a nanosecond (finer than five samples resolve) — and returns
    /// the results.
    pub fn finish(self) -> Vec<BenchResult> {
        let tenths = |ns: f64| (ns * 10.0).round() / 10.0;
        let mut w = Writer::new();
        w.object(Inline)
            .field("group", &self.group)
            .key("results")
            .array(Inline);
        for r in &self.results {
            w.object(Inline)
                .field("name", &r.name)
                .field("iters", r.iters)
                .field("samples", r.samples)
                .field("mean_ns", tenths(r.mean_ns))
                .field("min_ns", tenths(r.min_ns))
                .field("max_ns", tenths(r.max_ns))
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
        self.results
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

fn fmt_ns(ns: f64) -> String {
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

    #[test]
    fn calibrate_bounds() {
        assert_eq!(calibrate(Duration::from_secs(1)), 1);
        assert_eq!(calibrate(SAMPLE_BUDGET), 1);
        let fast = calibrate(Duration::from_nanos(10));
        assert!(fast > 1_000 && fast <= MAX_ITERS);
        assert_eq!(calibrate(Duration::ZERO), MAX_ITERS);
    }

    #[test]
    fn bench_produces_sane_stats_and_json() {
        let mut h = Harness::new("selftest");
        h.bench("noop-ish", || std::hint::black_box(3u64.wrapping_mul(7)));
        h.bench_bytes("hash-ish", 1024, || {
            std::hint::black_box([0u8; 1024].iter().map(|&b| b as u64).sum::<u64>())
        });
        let results = h.finish();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.mean_ns >= r.min_ns && r.mean_ns <= r.max_ns);
            assert!(r.min_ns > 0.0);
        }
        assert!(results[1].mib_per_sec().unwrap() > 0.0);
        let path = results_dir().join("BENCH_selftest.json");
        let json = fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"group\": \"selftest\""));
        assert!(json.contains("\"throughput_bytes\": 1024"));
        let _ = fs::remove_file(&path);
    }
}
