//! Archival units and block-granular replicas.

use std::collections::BTreeSet;

/// Identifies an archival unit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AuId(pub u32);

impl AuId {
    /// The AU's index, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "au{}", self.0)
    }
}

/// Static description of an archival unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuSpec {
    /// Total size in bytes (0.5 GB in the paper's experiments).
    pub size_bytes: u64,
}

impl Default for AuSpec {
    fn default() -> Self {
        AuSpec {
            size_bytes: 500_000_000,
        }
    }
}

impl AuSpec {
    /// Block size in bytes (1 MB here; the paper reports per-block votes
    /// without fixing a size). Votes carry one running hash per block and
    /// repairs transfer single blocks.
    pub const BLOCK_BYTES: u64 = 1_000_000;

    /// Number of blocks in the AU.
    pub fn blocks(&self) -> u64 {
        self.size_bytes.div_ceil(Self::BLOCK_BYTES)
    }
}

/// One peer's replica of one AU, as a sparse set of damaged block indices.
///
/// A freshly ingested replica (obtained from the publisher) is undamaged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replica {
    damaged: BTreeSet<u64>,
}

impl Replica {
    /// A pristine replica.
    pub fn pristine() -> Replica {
        Replica::default()
    }

    /// True if no block is damaged.
    pub fn is_intact(&self) -> bool {
        self.damaged.is_empty()
    }

    /// Number of damaged blocks.
    pub fn damaged_count(&self) -> usize {
        self.damaged.len()
    }

    /// Marks `block` damaged. Returns true if it was previously intact.
    pub fn damage(&mut self, block: u64) -> bool {
        self.damaged.insert(block)
    }

    /// Repairs `block` (idempotent). Returns true if it was damaged.
    pub fn repair(&mut self, block: u64) -> bool {
        self.damaged.remove(&block)
    }

    /// Snapshot of the damage set (what a vote effectively encodes: the
    /// voter's per-block hashes differ from canonical exactly on these
    /// blocks).
    pub fn snapshot(&self) -> Vec<u64> {
        self.damaged.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_is_intact() {
        let r = Replica::pristine();
        assert!(r.is_intact());
        assert_eq!(r.damaged_count(), 0);
    }

    #[test]
    fn damage_and_repair_roundtrip() {
        let mut r = Replica::pristine();
        assert!(r.damage(7));
        assert!(!r.damage(7), "double damage is idempotent");
        assert_eq!(r.snapshot(), vec![7]);
        assert_eq!(r.damaged_count(), 1);
        assert!(r.repair(7));
        assert!(!r.repair(7), "double repair is idempotent");
        assert!(r.is_intact());
    }

    #[test]
    fn au_spec_blocks_round_up() {
        let spec = AuSpec {
            size_bytes: 2_500_000,
        };
        assert_eq!(spec.blocks(), 3);
        assert_eq!(AuSpec::default().blocks(), 500);
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut r = Replica::pristine();
        r.damage(9);
        r.damage(1);
        r.damage(4);
        assert_eq!(r.snapshot(), vec![1, 4, 9]);
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    /// Up to 15 distinct damaged block indices in `0..64`.
    fn random_damage(rng: &mut SimRng) -> Vec<u64> {
        let blocks: Vec<u64> = (0..64).collect();
        let k = rng.below(16);
        rng.sample(&blocks, k)
    }

    /// Repairing every block of the damage snapshot restores a replica
    /// equal to a pristine one.
    #[test]
    fn repair_restores_agreement() {
        let mut rng = SimRng::seed_from_u64(0x0061_7502);
        for _ in 0..256 {
            let da = random_damage(&mut rng);
            let mut a = Replica::pristine();
            for b in &da {
                a.damage(*b);
            }
            for blk in a.snapshot() {
                assert!(a.repair(blk));
            }
            assert!(a.is_intact());
            assert_eq!(a, Replica::pristine());
        }
    }
}
