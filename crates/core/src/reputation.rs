//! First-hand reputation (§5.1).
//!
//! Each peer keeps, per AU, a *known-peers list* grading every identity it
//! has interacted with as `debt`, `even`, or `credit` according to the
//! balance of votes exchanged. Supplying a valid vote raises the supplier's
//! grade at the poller; receiving one lowers the poller's grade at the
//! voter. Misbehaviour (committing without supplying, or withholding the
//! evaluation receipt) drops straight to debt. Grades decay toward debt
//! over time.

use std::collections::hash_map::Entry as Slot;

use lockss_sim::{fxmap, Duration, FxHashMap, SimTime};

use crate::types::Identity;

/// A first-hand reputation grade. The discriminant is the grade's two bits
/// in a packed known-peers entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Grade {
    /// The peer has supplied fewer votes than it consumed.
    Debt = 0,
    /// Balanced recent exchanges.
    Even = 1,
    /// The peer has supplied more votes than it consumed.
    Credit = 2,
}

impl Grade {
    /// One step up (saturating at credit).
    pub fn raised(self) -> Grade {
        match self {
            Grade::Debt => Grade::Even,
            Grade::Even | Grade::Credit => Grade::Credit,
        }
    }

    /// One step down (saturating at debt).
    pub fn lowered(self) -> Grade {
        match self {
            Grade::Credit => Grade::Even,
            Grade::Even | Grade::Debt => Grade::Debt,
        }
    }

    /// Lowered by `steps` (saturating).
    fn decayed(self, steps: u64) -> Grade {
        let mut g = self;
        for _ in 0..steps.min(2) {
            g = g.lowered();
        }
        g
    }
}

/// What the admission filter knows about an inviting identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Standing {
    /// Never interacted (and not pre-seeded).
    Unknown,
    /// Known with the (decay-adjusted) grade.
    Known(Grade),
}

/// One known-peers entry in a word: the stamp of its last update in
/// milliseconds above the grade's two bits, `updated_ms << 2 | grade`.
/// With its 8-byte identity key a hash bucket is 16 bytes.
type Entry = u64;

/// Low bits of an [`Entry`] holding the grade.
const GRADE_BITS: u32 = 2;

/// Packs an entry. A later stamp would lose its top bits, so it panics
/// instead; runs are bounded to end by [`KnownPeers::LAST_STAMP`] where
/// they enter.
fn pack(grade: Grade, updated: SimTime) -> Entry {
    assert!(
        updated <= KnownPeers::LAST_STAMP,
        "stamp {updated} is past the last one an entry holds"
    );
    updated.as_millis() << GRADE_BITS | grade as u64
}

/// The grade an [`Entry`] holds.
fn grade_of(e: Entry) -> Grade {
    match e & ((1 << GRADE_BITS) - 1) {
        0 => Grade::Debt,
        1 => Grade::Even,
        _ => Grade::Credit,
    }
}

/// The stamp an [`Entry`] holds.
fn stamp_of(e: Entry) -> SimTime {
    SimTime(e >> GRADE_BITS)
}

/// A virtual "everyone in the founding population is known at even" rule,
/// standing in for the `peers × (peers-1)` explicit entries the world used
/// to materialize per AU at construction (gigabytes at 10k+ peers, and the
/// dominant cost of `World::new`). Observably equivalent: a loyal identity
/// below `bound` (other than the owner) reads as seeded at `grade` at time
/// `since`, decaying exactly like a real entry, until a real interaction
/// writes an explicit entry over it.
#[derive(Clone, Copy, Debug)]
struct PopulationDefault {
    /// Loyal indices `0..bound` are covered (the founding population);
    /// late joiners and minions are not.
    bound: u32,
    /// The owner's own loyal index, excluded (a peer never knew itself).
    except: u32,
    grade: Grade,
    since: SimTime,
}

/// The per-AU known-peers list of one peer.
#[derive(Clone, Debug, Default)]
pub struct KnownPeers {
    /// Lookup-only map (never iterated) of explicitly recorded standings,
    /// on the deterministic fast hasher. Holds only identities that have
    /// actually interacted (or been explicitly seeded); the steady-state
    /// founding population is covered by `population_default` instead.
    entries: FxHashMap<Identity, Entry>,
    /// The lazy founding-population rule, if installed.
    population_default: Option<PopulationDefault>,
}

impl KnownPeers {
    /// The last instant an entry can stamp, 2^62 − 1 ms (about 5.3e10
    /// days): a run must end by it.
    pub const LAST_STAMP: SimTime = SimTime(u64::MAX >> GRADE_BITS);

    /// Bytes of one hash bucket: an identity and its packed entry.
    pub const BUCKET_BYTES: usize = std::mem::size_of::<(Identity, Entry)>();

    /// An empty list.
    pub fn new() -> KnownPeers {
        KnownPeers::default()
    }

    /// Seeds an identity at a grade (world initialization: the steady-state
    /// proxy starts loyal peers at `even`).
    pub fn seed(&mut self, id: Identity, grade: Grade, now: SimTime) {
        self.entries.insert(id, pack(grade, now));
    }

    /// Pre-sizes the table for `n` upcoming [`KnownPeers::seed`] calls, so
    /// bulk seeding pays one table build instead of a rehash cascade.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n);
    }

    /// Installs the steady-state founding-population rule: every loyal
    /// identity with index below `bound` — except the owner `me` — reads as
    /// seeded at `grade` at time `at` without materializing an entry.
    ///
    /// This is the O(1) replacement for the O(population) explicit seeding
    /// loop of earlier world construction; real interactions still write
    /// explicit entries, which take precedence.
    pub fn assume_population(&mut self, bound: u32, me: Identity, grade: Grade, at: SimTime) {
        self.population_default = Some(PopulationDefault {
            bound,
            except: me.loyal_index().unwrap_or(u32::MAX),
            grade,
            since: at,
        });
    }

    fn decayed_at(grade: Grade, updated: SimTime, now: SimTime, decay: Duration) -> Grade {
        let steps = if decay.is_zero() {
            0
        } else {
            now.since(updated).as_millis() / decay.as_millis()
        };
        grade.decayed(steps)
    }

    /// What the founding-population rule says about an identity with no
    /// entry of its own.
    fn default_standing(
        rule: Option<PopulationDefault>,
        id: Identity,
        now: SimTime,
        decay: Duration,
    ) -> Standing {
        match rule {
            Some(d)
                if id
                    .loyal_index()
                    .is_some_and(|i| i < d.bound && i != d.except) =>
            {
                Standing::Known(Self::decayed_at(d.grade, d.since, now, decay))
            }
            _ => Standing::Unknown,
        }
    }

    /// The identity's standing at `now`, with decay applied (§5.1:
    /// "entries decay with time toward the debt grade").
    pub fn standing(&self, id: Identity, now: SimTime, decay: Duration) -> Standing {
        match self.entries.get(&id) {
            Some(&e) => Standing::Known(Self::decayed_at(grade_of(e), stamp_of(e), now, decay)),
            None => Self::default_standing(self.population_default, id, now, decay),
        }
    }

    /// Replaces the identity's standing at `now` with `step` of it, finding
    /// its entry once for the read and the write.
    fn update(
        &mut self,
        id: Identity,
        now: SimTime,
        decay: Duration,
        step: impl FnOnce(Standing) -> Grade,
    ) {
        match self.entries.entry(id) {
            Slot::Occupied(mut slot) => {
                let e = slot.get_mut();
                let current = Self::decayed_at(grade_of(*e), stamp_of(*e), now, decay);
                *e = pack(step(Standing::Known(current)), now);
            }
            Slot::Vacant(slot) => {
                let current = Self::default_standing(self.population_default, id, now, decay);
                slot.insert(pack(step(current), now));
            }
        }
    }

    /// Applies decay and then raises the identity's grade (it supplied a
    /// valid vote, §5.1). Unknown identities enter at `even` (first
    /// supplied vote raises from the implicit debt of a stranger).
    pub fn raise(&mut self, id: Identity, now: SimTime, decay: Duration) {
        self.update(id, now, decay, |standing| match standing {
            Standing::Unknown => Grade::Even,
            Standing::Known(g) => g.raised(),
        });
    }

    /// Applies decay and then lowers the identity's grade (it consumed a
    /// vote we supplied).
    pub fn lower(&mut self, id: Identity, now: SimTime, decay: Duration) {
        self.update(id, now, decay, |standing| match standing {
            Standing::Unknown => Grade::Debt,
            Standing::Known(g) => g.lowered(),
        });
    }

    /// Drops the identity straight to debt (misbehaviour, §5.1).
    pub fn penalize(&mut self, id: Identity, now: SimTime) {
        self.entries.insert(id, pack(Grade::Debt, now));
    }

    /// Number of *materialized* entries (identities with an explicitly
    /// recorded standing; the lazy founding-population rule adds none).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry is materialized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap bytes of the materialized entries: the hash
    /// table's buckets × [`KnownPeers::BUCKET_BYTES`] plus its control
    /// bytes.
    pub fn heap_bytes(&self) -> usize {
        let (slots, control) = fxmap::heap_bytes(&self.entries);
        slots + control
    }

    /// The hash table's control bytes, which [`KnownPeers::heap_bytes`]
    /// includes.
    pub(crate) fn control_bytes(&self) -> usize {
        fxmap::heap_bytes(&self.entries).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECAY: Duration = Duration(Duration::DAY.0 * 180);

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + Duration::from_days(days)
    }

    #[test]
    fn unknown_until_seen() {
        let kp = KnownPeers::new();
        assert_eq!(
            kp.standing(Identity::loyal(1), t(0), DECAY),
            Standing::Unknown
        );
    }

    #[test]
    fn raise_ladder() {
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(1);
        kp.raise(id, t(0), DECAY); // unknown -> even
        assert_eq!(kp.standing(id, t(0), DECAY), Standing::Known(Grade::Even));
        kp.raise(id, t(1), DECAY); // even -> credit
        assert_eq!(kp.standing(id, t(1), DECAY), Standing::Known(Grade::Credit));
        kp.raise(id, t(2), DECAY); // credit saturates
        assert_eq!(kp.standing(id, t(2), DECAY), Standing::Known(Grade::Credit));
    }

    #[test]
    fn lower_ladder() {
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(2);
        kp.seed(id, Grade::Credit, t(0));
        kp.lower(id, t(1), DECAY);
        assert_eq!(kp.standing(id, t(1), DECAY), Standing::Known(Grade::Even));
        kp.lower(id, t(2), DECAY);
        assert_eq!(kp.standing(id, t(2), DECAY), Standing::Known(Grade::Debt));
        kp.lower(id, t(3), DECAY);
        assert_eq!(kp.standing(id, t(3), DECAY), Standing::Known(Grade::Debt));
    }

    #[test]
    fn decay_steps_toward_debt() {
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(3);
        kp.seed(id, Grade::Credit, t(0));
        assert_eq!(
            kp.standing(id, t(179), DECAY),
            Standing::Known(Grade::Credit)
        );
        assert_eq!(kp.standing(id, t(181), DECAY), Standing::Known(Grade::Even));
        assert_eq!(kp.standing(id, t(361), DECAY), Standing::Known(Grade::Debt));
        // Decayed peers stay known (in-debt), never returning to unknown.
        assert_eq!(
            kp.standing(id, t(5000), DECAY),
            Standing::Known(Grade::Debt)
        );
    }

    #[test]
    fn raise_applies_decay_first() {
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(4);
        kp.seed(id, Grade::Credit, t(0));
        // After two decay periods the effective grade is debt; raising
        // yields even, not credit.
        kp.raise(id, t(365), DECAY);
        assert_eq!(kp.standing(id, t(365), DECAY), Standing::Known(Grade::Even));
    }

    #[test]
    fn penalize_is_immediate_debt() {
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(5);
        kp.seed(id, Grade::Credit, t(0));
        kp.penalize(id, t(1));
        assert_eq!(kp.standing(id, t(1), DECAY), Standing::Known(Grade::Debt));
    }

    /// The lazy founding-population rule must be observably identical to
    /// the dense explicit seeding it replaced: same standing for every
    /// covered identity at every probe time, through decay, raises, lowers,
    /// and penalties.
    #[test]
    fn population_default_matches_dense_seeding() {
        let me = Identity::loyal(3);
        let bound = 10u32;
        let mut dense = KnownPeers::new();
        for i in 0..bound {
            if Identity::loyal(i) != me {
                dense.seed(Identity::loyal(i), Grade::Even, t(0));
            }
        }
        let mut lazy = KnownPeers::new();
        lazy.assume_population(bound, me, Grade::Even, t(0));

        for probe_days in [0u64, 100, 200, 400, 1000] {
            for i in 0..bound + 3 {
                let id = Identity::loyal(i);
                assert_eq!(
                    dense.standing(id, t(probe_days), DECAY),
                    lazy.standing(id, t(probe_days), DECAY),
                    "peer {i} at day {probe_days}"
                );
            }
        }
        // Minions are unknown under both.
        let minion = Identity(Identity::MINION_BASE + 1);
        assert_eq!(lazy.standing(minion, t(1), DECAY), Standing::Unknown);
        // The owner never knew itself.
        assert_eq!(lazy.standing(me, t(1), DECAY), Standing::Unknown);

        // Interactions write through identically.
        for kp in [&mut dense, &mut lazy] {
            kp.raise(Identity::loyal(1), t(10), DECAY);
            kp.lower(Identity::loyal(2), t(20), DECAY);
            kp.penalize(Identity::loyal(4), t(30));
        }
        for i in 0..bound {
            let id = Identity::loyal(i);
            assert_eq!(
                dense.standing(id, t(40), DECAY),
                lazy.standing(id, t(40), DECAY),
                "after interactions, peer {i}"
            );
        }
        // And the lazy table only materialized the three touched entries.
        assert_eq!(lazy.len(), 3);
    }

    /// A stamp past the last one a packed entry holds would lose its top
    /// bits; it panics instead, in every build.
    #[test]
    #[should_panic(expected = "past the last one an entry holds")]
    fn a_stamp_past_the_last_panics() {
        let past = SimTime(KnownPeers::LAST_STAMP.as_millis() + 1);
        KnownPeers::new().penalize(Identity::loyal(1), past);
    }

    #[test]
    fn zero_decay_disables_decay() {
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(6);
        kp.seed(id, Grade::Credit, t(0));
        assert_eq!(
            kp.standing(id, t(10_000), Duration::ZERO),
            Standing::Known(Grade::Credit)
        );
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    const DECAY: Duration = Duration(Duration::DAY.0 * 30);

    /// Any sequence of raises/lowers/penalties keeps grades in the
    /// three-value lattice, and a penalty always lands on debt.
    #[test]
    fn grade_lattice_is_closed() {
        let mut rng = SimRng::seed_from_u64(0x7265_7001);
        for _ in 0..128 {
            let n_ops = 1 + rng.below(59);
            let mut kp = KnownPeers::new();
            let id = Identity::loyal(1);
            let mut t = SimTime::ZERO;
            for _ in 0..n_ops {
                let op = rng.below(4) as u8;
                t += Duration::DAY;
                match op {
                    0 => kp.raise(id, t, DECAY),
                    1 => kp.lower(id, t, DECAY),
                    2 => kp.penalize(id, t),
                    _ => {} // time passes
                }
                match kp.standing(id, t, DECAY) {
                    Standing::Unknown => {}
                    Standing::Known(g) => {
                        assert!(matches!(g, Grade::Debt | Grade::Even | Grade::Credit));
                        if op == 2 {
                            assert_eq!(g, Grade::Debt);
                        }
                    }
                }
            }
        }
    }

    /// Standing never *improves* with the passage of time alone.
    #[test]
    fn decay_is_monotone_nonincreasing() {
        let mut rng = SimRng::seed_from_u64(0x7265_7002);
        for _ in 0..256 {
            let days = rng.below(2000) as u64;
            let mut kp = KnownPeers::new();
            let id = Identity::loyal(2);
            kp.seed(id, Grade::Credit, SimTime::ZERO);
            let early = kp.standing(id, SimTime::ZERO, DECAY);
            let later = kp.standing(id, SimTime::ZERO + Duration::from_days(days), DECAY);
            let rank = |s: Standing| match s {
                Standing::Unknown => -1i32,
                Standing::Known(Grade::Debt) => 0,
                Standing::Known(Grade::Even) => 1,
                Standing::Known(Grade::Credit) => 2,
            };
            assert!(rank(later) <= rank(early));
        }
    }
}
