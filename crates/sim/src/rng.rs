//! Seeded randomness helpers for simulations.
//!
//! A self-hosted splitmix64 generator (the offline dependency policy bans
//! `rand`) extended with the distributions the protocol and adversary models
//! need (exponential inter-arrival times, jittered intervals, sampling
//! without replacement), so model code never touches raw bit streams and the
//! whole run stays a pure function of the seed.
//!
//! A [`SimRng`] is its 8-byte stream state and nothing else: no cache or
//! scratch buffer rides along, so the peer table's one stream per peer
//! costs 8 bytes a peer. CI's "No RNG state but the stream" guard keeps
//! it that way.

use crate::time::Duration;

/// A deterministic simulation RNG over the splitmix64 sequence.
///
/// splitmix64 walks its state by a fixed odd increment (the golden-ratio
/// constant) and passes it through an avalanching finalizer, so every
/// 64-bit seed yields a full-period, statistically solid stream — more
/// than enough for a simulation study, and dependency-free.
///
/// Cloning copies the state: the clone continues the identical stream
/// (metric sketches embed one and live inside cloneable collectors).
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

/// Above this domain size, [`SimRng::sample_map`] switches from the dense
/// O(n) index vector to the sparse O(k) displacement list. Purely a
/// performance knob: both paths consume identical draws.
const SPARSE_SAMPLE_THRESHOLD: usize = 2048;

/// Bits in the sparse sampler's filter on moved positions (a multiple of
/// 64): 128 bytes of stack, 4% full at a 40-entry sample.
const FILTER_BITS: usize = 1024;

/// The splitmix64 state increment (2^64 / φ, forced odd).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output finalizer: multiply-xorshift avalanche of
/// Stafford's "mix13".
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `v % n`, or `None` if `v` lies in the partial block of `n` values at the
/// top of the u64 range, for `n` not a power of two.
///
/// Accepts `v` iff the block it lies in, starting at `v - v % n`, ends by
/// `u64::MAX`. With `q` the largest multiple of `n` at most `u64::MAX`,
/// that accepts exactly the blocks starting at or below `q - n`, as the
/// classic `v < q` does: `n` is not a power of two, so `q + n - 1 >
/// u64::MAX` and `u64::MAX - (n - 1)` lies in `[q - n, q)`. The bound
/// needs no second division and no cache of `q` per `n`.
#[inline]
fn unbiased_residue(v: u64, n: u64) -> Option<u64> {
    let r = v % n;
    (v - r <= u64::MAX - (n - 1)).then_some(r)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// The next raw splitmix64 output.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Derives an independent child RNG; useful to give each peer its own
    /// stream so adding a peer does not perturb the others' draws. The
    /// child is seeded from a finalized output, so its state walk never
    /// collides with the parent's within any realistic horizon.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits scaled by 2^-53.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, n)`, unbiased via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn below_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: empty range");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Rejection keeps each residue equally likely; the loop rejects
        // less than half the time even in the worst case.
        loop {
            if let Some(r) = unbiased_residue(self.next_u64(), n) {
                return r;
            }
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.below_u64(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    /// `f64()` is in `[0, 1)`, so `p = 1.0` always succeeds and `p = 0.0`
    /// never does.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Uniform duration in `[lo, hi]`.
    pub fn duration_between(&mut self, lo: Duration, hi: Duration) -> Duration {
        if hi <= lo {
            return lo;
        }
        // The +1 makes the range inclusive; it only overflows when the
        // range covers the whole u64 domain, where any draw is valid.
        match (hi.as_millis() - lo.as_millis()).checked_add(1) {
            Some(span) => Duration(lo.as_millis() + self.below_u64(span)),
            None => Duration(self.next_u64()),
        }
    }

    /// `base` jittered multiplicatively by up to `±frac` (e.g. `0.1` for
    /// ±10%).
    pub fn jitter(&mut self, base: Duration, frac: f64) -> Duration {
        let factor = 1.0 + frac * (2.0 * self.f64() - 1.0);
        base.mul_f64(factor)
    }

    /// An exponentially distributed duration with the given mean; models
    /// Poisson processes (storage damage arrivals).
    ///
    /// A zero mean yields a zero duration.
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        if mean.is_zero() {
            return Duration::ZERO;
        }
        // Inverse-CDF sampling; 1 - f64() is in (0, 1] so ln() is finite.
        let u: f64 = 1.0 - self.f64();
        mean.mul_f64(-u.ln())
    }

    /// Chooses one element of a slice, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.below(items.len());
            Some(&items[i])
        }
    }

    /// Samples `k` distinct elements (cloned) uniformly without replacement;
    /// returns fewer if the slice is shorter than `k`. Order is random.
    pub fn sample<T: Clone>(&mut self, items: &[T], k: usize) -> Vec<T> {
        self.sample_map(items.len(), k, |i| items[i].clone())
    }

    /// Samples `k` distinct indices uniformly from `0..n` without
    /// replacement (fewer if `n < k`), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        self.sample_map(n, k, |i| i)
    }

    /// `f` of each of `k` distinct indices drawn uniformly from `0..n`
    /// without replacement (fewer if `n < k`), in random order, in a vector
    /// of exactly that capacity. Every sampler is this one, so all consume
    /// the same `below` sequence. Large domains (reference lists in 10k+
    /// peer worlds) only materialize moved positions: O(k), not O(n).
    pub fn sample_map<T>(&mut self, n: usize, k: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
        let k = k.min(n);
        let mut picks = Vec::with_capacity(k);
        if n <= SPARSE_SAMPLE_THRESHOLD {
            // Partial Fisher–Yates over an index vector: after k swap steps
            // the prefix is a uniform k-permutation of 0..n.
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.below(n - i);
                idx.swap(i, j);
                picks.push(f(idx[i]));
            }
            return picks;
        }
        // Sparse Fisher–Yates: `moved` lists (position, value) for each
        // write to the virtual 0..n vector, latest last; other positions
        // hold their own index. `filter` marks `position % FILTER_BITS` of
        // each write, so most lookups (all but a few when n ≫ k) skip the
        // scan. Identical draw sequence to the dense path.
        let mut moved: Vec<(usize, usize)> = Vec::with_capacity(k);
        let mut filter = [0u64; FILTER_BITS / 64];
        for i in 0..k {
            let j = i + self.below(n - i);
            let at = |pos: usize| match filter[pos % FILTER_BITS / 64] >> (pos % 64) & 1 {
                0 => pos,
                _ => moved.iter().rev().find(|m| m.0 == pos).map_or(pos, |m| m.1),
            };
            picks.push(f(at(j)));
            moved.push((j, at(i)));
            filter[j % FILTER_BITS / 64] |= 1 << (j % 64);
        }
        picks
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A uniform `u64` (for deriving nonces and content seeds).
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_from_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn an_rng_is_its_stream_state() {
        assert_eq!(std::mem::size_of::<SimRng>(), 8);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::seed_from_u64(7);
        let mean = Duration::from_days(100);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_millis()).sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_millis() as f64;
        assert!(
            (avg - expect).abs() / expect < 0.05,
            "avg {avg} vs {expect}"
        );
    }

    #[test]
    fn exponential_zero_mean() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(rng.exponential(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = SimRng::seed_from_u64(9);
        let base = Duration::from_days(90);
        for _ in 0..1000 {
            let j = rng.jitter(base, 0.1);
            assert!(j >= base.mul_f64(0.9) && j <= base.mul_f64(1.1));
        }
    }

    #[test]
    fn sample_indices_matches_dense_sample_across_the_threshold() {
        // The sparse path must consume the same draws and return the same
        // picks as the dense path; compare both against `sample` over an
        // identity slice on domains straddling SPARSE_SAMPLE_THRESHOLD.
        // k = 2048 at n = 2049 is the sparse path's most collision-heavy
        // case: nearly every position it reads was moved.
        for n in [0usize, 1, 5, 100, 2048, 2049, 5000, 60_000, 1_000_000] {
            let items: Vec<usize> = (0..n).collect();
            for k in [0usize, 1, 7, 40, 100, 2000, 2048] {
                let mut a = SimRng::seed_from_u64(1000 + n as u64 + k as u64);
                let mut b = SimRng::seed_from_u64(1000 + n as u64 + k as u64);
                let via_slice = a.sample(&items, k);
                let via_indices = b.sample_indices(n, k);
                assert_eq!(via_slice, via_indices, "n={n} k={k}");
                assert_eq!(via_slice.capacity(), via_slice.len(), "n={n} k={k}");
                assert_eq!(via_indices.capacity(), via_indices.len(), "n={n} k={k}");
                // Both RNGs must land in the same state.
                assert_eq!(a.u64(), b.u64(), "n={n} k={k} draw streams diverged");
            }
        }
    }

    /// The rejection rule before [`unbiased_residue`]: accept below the
    /// largest multiple of `n` at most `u64::MAX`.
    fn zone(n: u64) -> u64 {
        u64::MAX - u64::MAX % n
    }

    #[test]
    fn rejection_rule_matches_the_zone_rule_at_boundaries() {
        let mut gen = SimRng::seed_from_u64(31);
        let random = (0..2000).map(|_| 3 + gen.u64() % (1 << 40));
        let huge = [u64::MAX, u64::MAX - 1, (1 << 63) + 1, 3 << 62, u64::MAX / 3];
        for n in (3..5000).chain(random).chain(huge) {
            if n.is_power_of_two() {
                continue;
            }
            let z = zone(n);
            let edges = [0, 1, n - 1, n, z - n, z - n + 1, z - 2, z - 1, z, u64::MAX];
            for v in edges.into_iter().chain((z..=u64::MAX).take(3)) {
                let want = (v < z).then_some(v % n);
                assert_eq!(unbiased_residue(v, n), want, "n={n} v={v}");
            }
        }
    }

    /// The sampler as it stood when `SimRng` kept a reusable index buffer
    /// and a cache of rejection zones, copied so the rewritten samplers are
    /// held to it rather than only to each other.
    struct ScratchRng {
        state: u64,
        scratch: Vec<usize>,
        zones: [(u64, u64); 32],
    }

    impl ScratchRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GOLDEN_GAMMA);
            mix(self.state)
        }

        fn below(&mut self, n: usize) -> usize {
            let n = n as u64;
            if n.is_power_of_two() {
                return (self.next_u64() & (n - 1)) as usize;
            }
            let slot = (n as usize) & 31;
            let zone = if self.zones[slot].0 == n {
                self.zones[slot].1
            } else {
                let zone = zone(n);
                self.zones[slot] = (n, zone);
                zone
            };
            loop {
                let v = self.next_u64();
                if v < zone {
                    return (v % n) as usize;
                }
            }
        }

        fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
            let k = k.min(n);
            if k == 0 {
                return Vec::new();
            }
            if n <= SPARSE_SAMPLE_THRESHOLD {
                let mut idx = std::mem::take(&mut self.scratch);
                idx.clear();
                idx.extend(0..n);
                for i in 0..k {
                    let j = i + self.below(n - i);
                    idx.swap(i, j);
                }
                let picks = idx[..k].to_vec();
                self.scratch = idx;
                return picks;
            }
            let mut displaced: crate::FxHashMap<usize, usize> = crate::fxmap::with_capacity(2 * k);
            let mut picks = Vec::with_capacity(k);
            for i in 0..k {
                let j = i + self.below(n - i);
                let at_j = displaced.get(&j).copied().unwrap_or(j);
                let at_i = displaced.get(&i).copied().unwrap_or(i);
                picks.push(at_j);
                displaced.insert(j, at_i);
            }
            picks
        }
    }

    #[test]
    fn samplers_match_the_scratch_sampler() {
        // One stream per side across every call, so a drift in any draw
        // shows up in every later pick.
        let mut old = ScratchRng {
            state: 77,
            scratch: Vec::new(),
            zones: [(0, 0); 32],
        };
        let (mut by_index, mut by_slice) = (SimRng::seed_from_u64(77), SimRng::seed_from_u64(77));
        // Every domain up to the first sparse one, then the sparse path at
        // k = n - 1, with k up to 2,000 and with n up to 10^6.
        let dense = (1..=2049usize).flat_map(|n| [0, 1, n / 2, n, n + 1].map(|k| (n, k)));
        let sparse = [
            (2049, 2048),
            (2050, 2000),
            (5000, 2000),
            (60_000, 1999),
            (1_000_000, 40),
            (1_000_000, 2000),
        ];
        for (n, k) in dense.chain(sparse) {
            let items: Vec<usize> = (0..n).collect();
            let want = old.sample_indices(n, k);
            for got in [by_index.sample_indices(n, k), by_slice.sample(&items, k)] {
                assert_eq!(got, want, "n={n} k={k}");
                assert_eq!(got.capacity(), got.len(), "n={n} k={k}: spare capacity");
            }
            let next = old.below(n);
            assert_eq!(by_index.below(n), next, "n={n} k={k}");
            assert_eq!(by_slice.below(n), next, "n={n} k={k}");
        }
        let last = old.next_u64();
        assert_eq!((by_index.u64(), by_slice.u64()), (last, last));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::seed_from_u64(29);
        let got = rng.sample_indices(50_000, 200);
        assert_eq!(got.len(), 200);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "indices must be distinct");
        assert!(sorted.iter().all(|&i| i < 50_000));
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut rng = SimRng::seed_from_u64(11);
        let items: Vec<u32> = (0..50).collect();
        let got = rng.sample(&items, 20);
        assert_eq!(got.len(), 20);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "sample must be distinct");
        let few = rng.sample(&items[..5], 20);
        assert_eq!(few.len(), 5);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
        assert!(!rng.chance(-1.0)); // clamped
    }

    #[test]
    fn duration_between_degenerate() {
        let mut rng = SimRng::seed_from_u64(19);
        let d = Duration::from_secs(5);
        assert_eq!(rng.duration_between(d, d), d);
        assert_eq!(rng.duration_between(d, Duration::SECOND), d);
    }

    #[test]
    fn duration_between_full_domain_does_not_overflow() {
        let mut rng = SimRng::seed_from_u64(23);
        for _ in 0..100 {
            let d = rng.duration_between(Duration::ZERO, Duration(u64::MAX));
            assert!(d <= Duration(u64::MAX));
        }
        let e = rng.duration_between(Duration(1), Duration(u64::MAX));
        assert!(e >= Duration(1));
    }
}
