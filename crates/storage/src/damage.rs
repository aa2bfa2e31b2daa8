//! The storage-damage (bit rot) process.
//!
//! §7.1: "Our simulated peers suffer random storage damage at rates of one
//! block in 1 to 5 disk years (50 AUs per disk)." Damage arrivals at one
//! peer form a Poisson process whose rate scales with the number of disks
//! (AUs / 50); each arrival corrupts one uniformly random block of one
//! uniformly random AU.

use lockss_sim::{Duration, SimRng};

/// Poisson damage process for one peer.
#[derive(Clone, Debug)]
pub struct DamageProcess {
    /// Mean time between damage events *per disk*.
    pub mean_per_disk: Duration,
    /// AUs resident on one disk (50 in the paper).
    pub aus_per_disk: u32,
    /// AUs stored at this peer.
    pub aus: u32,
}

impl DamageProcess {
    /// A process with the paper's defaults: `mtbf_years` per disk, 50
    /// AUs/disk, `aus` stored.
    pub fn paper(mtbf_years: f64, aus: u32) -> DamageProcess {
        DamageProcess {
            mean_per_disk: Duration::YEAR.mul_f64(mtbf_years),
            aus_per_disk: 50,
            aus,
        }
    }

    /// Mean time between damage events at this peer.
    ///
    /// The paper's rate is *per disk of 50 AUs*, i.e. a per-AU rate of
    /// `1 / (mean_per_disk × 50)`. Collections smaller than a full disk
    /// scale fractionally so the per-AU rate — and hence the access
    /// failure probability — is independent of collection size (the paper
    /// observes 50-AU and 600-AU collections overlap in Fig. 2).
    pub fn mean_per_peer(&self) -> Duration {
        let fractional_disks = self.aus as f64 / self.aus_per_disk as f64;
        Duration::from_millis(
            (self.mean_per_disk.as_millis() as f64 / fractional_disks).round() as u64,
        )
    }

    /// Samples the wait until this peer's next damage event.
    pub fn next_arrival(&self, rng: &mut SimRng) -> Duration {
        rng.exponential(self.mean_per_peer())
    }

    /// Picks the (AU index, block index) hit by a damage event.
    pub fn pick_target(&self, rng: &mut SimRng, blocks_per_au: u64) -> (u32, u64) {
        let au = rng.below(self.aus as usize) as u32;
        let block = rng.below(blocks_per_au as usize) as u64;
        (au, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_rate_scales_with_disks() {
        let p = DamageProcess::paper(5.0, 600);
        // 12 disks at 5 years each => one event every 5/12 years.
        let expect = Duration::YEAR.mul_f64(5.0 / 12.0);
        let got = p.mean_per_peer();
        let err = (got.as_secs_f64() - expect.as_secs_f64()).abs() / expect.as_secs_f64();
        assert!(err < 1e-6, "{got} vs {expect}");
    }

    #[test]
    fn arrivals_have_right_mean() {
        let mut rng = SimRng::seed_from_u64(21);
        let p = DamageProcess::paper(1.0, 50);
        let n = 5000;
        let total: f64 = (0..n)
            .map(|_| p.next_arrival(&mut rng).as_secs_f64() / Duration::YEAR.as_secs_f64())
            .sum();
        let avg = total / n as f64;
        assert!((avg - 1.0).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn targets_cover_space() {
        let mut rng = SimRng::seed_from_u64(22);
        let p = DamageProcess::paper(5.0, 10);
        let mut seen_aus = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let (au, block) = p.pick_target(&mut rng, 500);
            assert!(au < 10);
            assert!(block < 500);
            seen_aus.insert(au);
        }
        assert_eq!(seen_aus.len(), 10, "all AUs should be hit eventually");
    }
}

#[cfg(test)]
mod fractional_tests {
    use super::*;

    #[test]
    fn per_au_rate_is_collection_size_independent() {
        // The paper's Fig. 2 shows 50-AU and 600-AU collections overlap:
        // the per-AU damage rate must not depend on collection size.
        for aus in [4u32, 12, 50, 200, 600] {
            let p = DamageProcess::paper(5.0, aus);
            let per_peer_per_year = Duration::YEAR / p.mean_per_peer();
            let per_au = per_peer_per_year / aus as f64;
            assert!(
                (per_au - 0.004).abs() < 1e-6,
                "aus={aus}: per-AU rate {per_au}"
            );
        }
    }
}
