//! Streaming run-time summaries with O(1) memory per observation.
//!
//! Production-scale runs (10k–100k peers, hundreds of thousands of poll
//! conclusions) cannot afford to buffer per-event vectors the way a
//! figure-scale run could; [`Reservoir`] keeps fixed-size state no matter
//! how long the run: a uniform fixed-capacity sample (Vitter's Algorithm
//! R) with quantile readout, driven by its own embedded deterministic RNG
//! so runs stay byte-reproducible.

use lockss_sim::SimRng;

/// A uniform reservoir sample of a stream of `f64` observations.
///
/// Holds at most `cap` values; after the reservoir fills, each new
/// observation replaces a uniformly random held one with probability
/// `cap / seen`, so the retained set is always a uniform sample of
/// everything observed. The replacement draws come from an embedded
/// [`SimRng`] seeded at construction — identical streams in, identical
/// sample out, regardless of threads or wall clock.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    sample: Vec<f64>,
    rng: SimRng,
}

/// Fixed default seed: the reservoir is a run-local sketch, so a constant
/// salt keeps every run of the same scenario byte-identical.
const RESERVOIR_SEED: u64 = 0x7265_7376_7232;

impl Reservoir {
    /// An empty reservoir holding at most `cap` observations.
    pub fn new(cap: usize) -> Reservoir {
        Reservoir::with_seed(cap, RESERVOIR_SEED)
    }

    /// An empty reservoir with an explicit RNG seed.
    pub fn with_seed(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            sample: Vec::with_capacity(cap.min(4096)),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Observes one value.
    pub fn add(&mut self, value: f64) {
        self.seen += 1;
        if self.sample.len() < self.cap {
            self.sample.push(value);
            return;
        }
        if self.cap == 0 {
            return;
        }
        // Algorithm R: keep with probability cap/seen, evicting uniformly.
        let j = self.rng.below(self.seen as usize);
        if j < self.cap {
            self.sample[j] = value;
        }
    }

    /// Observations seen (not the retained count).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Retained observations.
    pub fn len(&self) -> usize {
        self.sample.len()
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.sample.is_empty()
    }

    /// The retained sample, in observation order.
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }

    /// The `q`-quantile (`0.0..=1.0`) of the retained sample, by
    /// nearest-rank on a sorted copy. `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        let mut sorted = self.sample.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_under_capacity() {
        let mut r = Reservoir::new(10);
        for i in 0..10 {
            r.add(i as f64);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 10);
        assert_eq!(r.quantile(0.0), Some(0.0));
        assert_eq!(r.quantile(1.0), Some(9.0));
        assert_eq!(r.quantile(0.5), Some(5.0), "rank 4.5 rounds up");
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let run = || {
            let mut r = Reservoir::new(64);
            for i in 0..100_000u64 {
                r.add((i % 1000) as f64);
            }
            r.sample().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 64, "capacity bound holds");
        assert_eq!(a, b, "same stream, same sample");
    }

    #[test]
    fn reservoir_quantiles_approximate_the_stream() {
        let mut r = Reservoir::new(512);
        // Uniform 0..10_000.
        for i in 0..10_000 {
            r.add(i as f64);
        }
        let p50 = r.quantile(0.5).unwrap();
        let p90 = r.quantile(0.9).unwrap();
        assert!((p50 - 5_000.0).abs() < 700.0, "p50 {p50}");
        assert!((p90 - 9_000.0).abs() < 700.0, "p90 {p90}");
        assert!(r.quantile(0.1).unwrap() < p50);
    }

    #[test]
    fn empty_reservoir_has_no_quantiles() {
        let r = Reservoir::new(8);
        assert!(r.is_empty());
        assert_eq!(r.quantile(0.5), None);
    }
}
