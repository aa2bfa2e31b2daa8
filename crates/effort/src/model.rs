//! The calibrated cost model (paper §5.1 and §6.3).
//!
//! All constants model the paper's "low-cost PC" deployment unit. The
//! effort-balancing identities are:
//!
//! - the voter's cost to serve a vote is `verify(intro) + verify(remaining)
//!   + hash(AU) + generate(vote proof)`;
//! - the poller's provable effort `intro + remaining` must exceed that by a
//!   safety margin (§5.1: "the requester of a service has more invested in
//!   the exchange than the supplier");
//! - `intro = 20%` of the poller's total per-voter effort (§6.3), sized
//!   together with the in-debt drop probability 0.8 so that ~5 attempted
//!   admissions cost an attacker at least the victim's consideration of the
//!   one admitted invitation;
//! - MBF verification costs a large constant fraction of generation
//!   (memory-bound functions verify by replaying accepted walks).

use lockss_sim::Duration;
use lockss_storage::AuSpec;

/// Calibrated CPU-time costs for every protocol operation.
///
/// The costs that scale with the archival unit take its size in bytes;
/// a world passes its `AuSpec::size_bytes`.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Content hash throughput (bytes/second); 30 MB/s models a 2004
    /// low-cost PC's disk+SHA-1 pipeline.
    pub hash_bytes_per_sec: f64,
    /// Fraction of MBF generation cost paid by the verifier.
    pub verify_ratio: f64,
    /// Safety margin by which the poller's provable effort exceeds the
    /// voter's total cost.
    pub effort_margin: f64,
    /// Fraction of total per-voter poller effort carried by the
    /// introductory proof in the `Poll` message (§6.3: 20%).
    pub intro_fraction: f64,
    /// CPU cost of establishing the TLS-over-anonymous-DH session.
    pub session_setup: Duration,
    /// CPU cost of parsing/considering one protocol message.
    pub message_parse: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hash_bytes_per_sec: 30.0e6,
            verify_ratio: 0.5,
            effort_margin: 0.05,
            intro_fraction: 0.2,
            session_setup: Duration::from_millis(50),
            message_parse: Duration::from_millis(1),
        }
    }
}

impl CostModel {
    /// Time to hash `bytes` of content.
    pub fn hash_cost(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.hash_bytes_per_sec)
    }

    /// Time to hash one full AU replica of `au_bytes` (the bulk of vote
    /// generation and of vote evaluation).
    pub fn au_hash(&self, au_bytes: u64) -> Duration {
        self.hash_cost(au_bytes)
    }

    /// Time to hash a single block (the unit of repair re-evaluation).
    pub fn block_hash(&self) -> Duration {
        self.hash_cost(AuSpec::BLOCK_BYTES)
    }

    /// The small provable effort embedded in a `Vote`, covering the cost of
    /// hashing a single block plus verifying this effort (§5.1).
    pub fn vote_proof_gen(&self) -> Duration {
        // Solve g >= margin'd (verify(g) + block_hash):
        // g = (1 + m) * block_hash / (1 - (1 + m) * rho), defensively
        // clamped for extreme parameter choices.
        let m = 1.0 + self.effort_margin;
        let denom = (1.0 - m * self.verify_ratio).max(0.05);
        self.block_hash().mul_f64(m / denom)
    }

    /// Verifier cost for the vote's embedded proof.
    pub fn vote_proof_verify(&self) -> Duration {
        self.vote_proof_gen().mul_f64(self.verify_ratio)
    }

    /// The voter's total cost to *serve* one vote, excluding admission
    /// consideration: verifying the poller's two proofs, hashing the AU, and
    /// generating the vote's own embedded proof.
    pub fn vote_service_cost(&self, au_bytes: u64) -> Duration {
        self.intro_verify(au_bytes)
            + self.remaining_verify(au_bytes)
            + self.au_hash(au_bytes)
            + self.vote_proof_gen()
    }

    /// The poller's total per-voter provable effort `T` (intro + remaining).
    ///
    /// Solves the §5.1 balance: `T ≥ (1+margin) · (verify(T) + hash(AU) +
    /// vote_proof_gen)`, i.e. `T = (1+m)(hash + proof) / (1 - (1+m)·ρ)`.
    pub fn total_provable_effort(&self, au_bytes: u64) -> Duration {
        let m = 1.0 + self.effort_margin;
        let denom = (1.0 - m * self.verify_ratio).max(0.05);
        (self.au_hash(au_bytes) + self.vote_proof_gen()).mul_f64(m / denom)
    }

    /// Generation cost of the introductory effort in `Poll` (§6.3: 20% of
    /// the total).
    pub fn intro_gen(&self, au_bytes: u64) -> Duration {
        self.total_provable_effort(au_bytes)
            .mul_f64(self.intro_fraction)
    }

    /// Verification cost of the introductory effort.
    pub fn intro_verify(&self, au_bytes: u64) -> Duration {
        self.intro_gen(au_bytes).mul_f64(self.verify_ratio)
    }

    /// Generation cost of the remaining effort in `PollProof`.
    pub fn remaining_gen(&self, au_bytes: u64) -> Duration {
        self.total_provable_effort(au_bytes)
            .saturating_sub(self.intro_gen(au_bytes))
    }

    /// Verification cost of the remaining effort.
    pub fn remaining_verify(&self, au_bytes: u64) -> Duration {
        self.remaining_gen(au_bytes).mul_f64(self.verify_ratio)
    }

    /// Cost to serve one repair block: read + hash + frame it.
    pub fn repair_serve_cost(&self) -> Duration {
        self.block_hash() * 2
    }

    /// Cost to apply and re-evaluate one received repair block.
    pub fn repair_apply_cost(&self) -> Duration {
        self.block_hash() * 2
    }

    /// The cost a voter pays merely to *consider* an invitation (session
    /// establishment, schedule check), before any proof verification.
    pub fn consider_cost(&self) -> Duration {
        self.session_setup + self.message_parse
    }

    /// Cost to detect a *garbage* introductory proof: MBF verification
    /// aborts on the first failed walk, so detection is a small fraction of
    /// full verification (§6.3: "even if all poll invitations are bogus,
    /// the total cost of detecting them as bogus is negligible").
    pub fn bogus_intro_detect(&self, au_bytes: u64) -> Duration {
        self.intro_verify(au_bytes).mul_f64(1.0 / 8.0)
    }

    /// Sanity check: the §5.1 effort-balance inequality holds for an AU of
    /// `au_bytes`.
    pub fn balance_holds(&self, au_bytes: u64) -> bool {
        let poller = self.intro_gen(au_bytes) + self.remaining_gen(au_bytes);
        let voter = self.vote_service_cost(au_bytes);
        poller >= voter
    }

    /// Evaluates every derived cost for an AU of `au_bytes` once into a
    /// flat [`CostTable`].
    ///
    /// The accessors above each re-derive a chain of float identities
    /// (`remaining_gen` alone evaluates `total_provable_effort` twice), and
    /// the protocol consults them on every invite, ack, and vote. The world
    /// builds this table at construction from the calibration and its AU
    /// size, both fixed for the lifetime of a run, so hot paths read a
    /// precomputed `Duration` instead. Values are the accessors' own
    /// outputs, bit for bit.
    pub fn table(&self, au_bytes: u64) -> CostTable {
        CostTable {
            au_hash: self.au_hash(au_bytes),
            block_hash: self.block_hash(),
            intro_gen: self.intro_gen(au_bytes),
            intro_verify: self.intro_verify(au_bytes),
            remaining_gen: self.remaining_gen(au_bytes),
            remaining_verify: self.remaining_verify(au_bytes),
            vote_proof_gen: self.vote_proof_gen(),
            vote_proof_verify: self.vote_proof_verify(),
            consider: self.consider_cost(),
            bogus_intro_detect: self.bogus_intro_detect(au_bytes),
            repair_serve: self.repair_serve_cost(),
            repair_apply: self.repair_apply_cost(),
        }
    }
}

/// Flat, precomputed snapshot of every derived [`CostModel`] cost (see
/// [`CostModel::table`]).
#[derive(Clone, Copy, Debug)]
pub struct CostTable {
    /// [`CostModel::au_hash`].
    pub au_hash: Duration,
    /// [`CostModel::block_hash`].
    pub block_hash: Duration,
    /// [`CostModel::intro_gen`].
    pub intro_gen: Duration,
    /// [`CostModel::intro_verify`].
    pub intro_verify: Duration,
    /// [`CostModel::remaining_gen`].
    pub remaining_gen: Duration,
    /// [`CostModel::remaining_verify`].
    pub remaining_verify: Duration,
    /// [`CostModel::vote_proof_gen`].
    pub vote_proof_gen: Duration,
    /// [`CostModel::vote_proof_verify`].
    pub vote_proof_verify: Duration,
    /// [`CostModel::consider_cost`].
    pub consider: Duration,
    /// [`CostModel::bogus_intro_detect`].
    pub bogus_intro_detect: Duration,
    /// [`CostModel::repair_serve_cost`].
    pub repair_serve: Duration,
    /// [`CostModel::repair_apply_cost`].
    pub repair_apply: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's AU: 0.5 GB.
    const AU: u64 = 500_000_000;

    #[test]
    fn default_balance_holds() {
        let m = CostModel::default();
        assert!(m.balance_holds(AU));
    }

    #[test]
    fn au_hash_matches_rate() {
        let m = CostModel::default();
        // 5e8 bytes at 3e7 B/s = 16.67 s.
        let d = m.au_hash(AU);
        assert!((d.as_secs_f64() - 16.6667).abs() < 0.01, "{d}");
    }

    #[test]
    fn intro_is_twenty_percent_of_total() {
        let m = CostModel::default();
        let frac = m.intro_gen(AU).as_secs_f64() / m.total_provable_effort(AU).as_secs_f64();
        assert!((frac - 0.2).abs() < 0.01, "{frac}");
    }

    #[test]
    fn intro_plus_remaining_is_total() {
        let m = CostModel::default();
        let sum = m.intro_gen(AU) + m.remaining_gen(AU);
        let total = m.total_provable_effort(AU);
        let diff = sum.as_secs_f64() - total.as_secs_f64();
        assert!(diff.abs() < 0.01, "{diff}");
    }

    #[test]
    fn verification_is_cheaper_than_generation() {
        let m = CostModel::default();
        assert!(m.intro_verify(AU) < m.intro_gen(AU));
        assert!(m.remaining_verify(AU) < m.remaining_gen(AU));
        assert!(m.vote_proof_verify() < m.vote_proof_gen());
    }

    #[test]
    fn balance_holds_across_au_sizes() {
        for au in [1_000_000u64, 50_000_000, 500_000_000, 2_000_000_000] {
            assert!(CostModel::default().balance_holds(au), "au={au}");
        }
    }

    #[test]
    fn five_dropped_intros_cost_more_than_consideration() {
        // §6.3: by the time an in-debt attacker gets admitted (mean 5
        // tries), he has spent more than the victim's consideration cost.
        let m = CostModel::default();
        let attacker = m.intro_gen(AU).as_secs_f64() * 5.0;
        let victim = (m.consider_cost() + m.intro_verify(AU)).as_secs_f64();
        assert!(attacker > victim);
    }

    /// Every derived cost, in milliseconds, at the AU sizes worlds use:
    /// 50 MB (the unit and integration test worlds), 100 MB (the
    /// examples and the protocol bench) and 500 MB (the paper's AU, which
    /// every registry scenario runs).
    #[test]
    fn cost_table_is_pinned_at_the_au_sizes_in_use() {
        for (au, ms) in [
            (
                50_000_000u64,
                [1667, 33, 769, 385, 3077, 1539, 73, 37, 51, 48, 66, 66],
            ),
            (
                100_000_000,
                [3333, 33, 1506, 753, 6023, 3012, 73, 37, 51, 94, 66, 66],
            ),
            (
                500_000_000,
                [16667, 33, 7401, 3701, 29603, 14802, 73, 37, 51, 463, 66, 66],
            ),
        ] {
            let t = CostModel::default().table(au);
            let got = [
                t.au_hash,
                t.block_hash,
                t.intro_gen,
                t.intro_verify,
                t.remaining_gen,
                t.remaining_verify,
                t.vote_proof_gen,
                t.vote_proof_verify,
                t.consider,
                t.bogus_intro_detect,
                t.repair_serve,
                t.repair_apply,
            ]
            .map(Duration::as_millis);
            assert_eq!(got, ms, "au={au}");
        }
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    /// The paper's AU: 0.5 GB.
    const AU: u64 = 500_000_000;

    /// Uniform draw from `[lo, hi)`.
    fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.f64()
    }

    /// The §5.1 effort-balance inequality holds across the whole
    /// reasonable parameter space: the requester always has more
    /// invested than the supplier.
    #[test]
    fn balance_holds_everywhere() {
        let mut rng = SimRng::seed_from_u64(0x6566_6601);
        for _ in 0..256 {
            let au_mb = 1 + rng.below(3_999) as u64;
            let verify_ratio = uniform(&mut rng, 0.05, 0.85);
            let margin = uniform(&mut rng, 0.0, 0.5);
            let intro_fraction = uniform(&mut rng, 0.05, 0.5);
            let m = CostModel {
                verify_ratio,
                effort_margin: margin,
                intro_fraction,
                ..CostModel::default()
            };
            assert!(
                m.balance_holds(au_mb * 1_000_000),
                "balance must hold: au={au_mb}MB rho={verify_ratio} m={margin}"
            );
        }
    }

    /// Effort components are all positive and intro+remaining stays
    /// within rounding of the total.
    #[test]
    fn components_partition_total() {
        let mut rng = SimRng::seed_from_u64(0x6566_6602);
        for _ in 0..256 {
            let verify_ratio = uniform(&mut rng, 0.05, 0.85);
            let intro_fraction = uniform(&mut rng, 0.05, 0.5);
            let m = CostModel {
                verify_ratio,
                intro_fraction,
                ..CostModel::default()
            };
            assert!(!m.intro_gen(AU).is_zero());
            assert!(!m.remaining_gen(AU).is_zero());
            let total = m.total_provable_effort(AU).as_secs_f64();
            let sum = (m.intro_gen(AU) + m.remaining_gen(AU)).as_secs_f64();
            assert!((total - sum).abs() < 0.01, "{total} vs {sum}");
        }
    }

    /// Verification never costs more than generation.
    #[test]
    fn verify_leq_generate() {
        let mut rng = SimRng::seed_from_u64(0x6566_6603);
        for _ in 0..256 {
            let verify_ratio = uniform(&mut rng, 0.05, 0.95);
            let m = CostModel {
                verify_ratio,
                ..CostModel::default()
            };
            assert!(m.intro_verify(AU) <= m.intro_gen(AU));
            assert!(m.remaining_verify(AU) <= m.remaining_gen(AU));
            assert!(m.vote_proof_verify() <= m.vote_proof_gen());
        }
    }
}
