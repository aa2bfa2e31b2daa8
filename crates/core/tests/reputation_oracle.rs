//! Differential oracle for the known-peers list.
//!
//! [`KnownPeers`] packs each entry into one word, the stamp of its last
//! update above the grade's two bits; `RefKnown` below is its slow twin, a
//! `BTreeMap` of `(grade, stamp)` pairs plus the founding-population rule,
//! with decay and every grade transition written out over them. A seeded
//! random program of `seed`, `assume_population`, `raise`, `lower`,
//! `penalize` and `standing` runs against both, and after every step the
//! standing of every identity the program uses, and the number of
//! materialized entries, must be equal.
//!
//! What the program is built to reach:
//!
//! - founding-population identities (the owner among them), late joiners
//!   the rule does not cover, and minions;
//! - clock steps of zero, of exactly `k · decay` for k = 1, 2, 3, and one
//!   millisecond either side, so every decay boundary is probed from both
//!   sides;
//! - runs that start a short way below [`KnownPeers::LAST_STAMP`] and
//!   stamp entries at the limit itself, where a packing that lost a stamp
//!   bit would show;
//! - the rule reinstalled mid-program with another bound, owner, grade and
//!   time, and decay switched off.
//!
//! A mutant that stores each stamp without its top bit runs through the
//! same driver, and the oracle must catch it.
//!
//! `LOCKSS_ORACLE_SEEDS=<n>` sets the number of seeds, as it does for the
//! other oracles (the nightly CI job runs 20× the default).

use std::collections::BTreeMap;

use lockss_core::reputation::{Grade, KnownPeers, Standing};
use lockss_core::Identity;
use lockss_sim::{Duration, SimRng, SimTime};

const DEFAULT_SEEDS: u64 = 400;
const STEPS: usize = 300;

fn seeds() -> u64 {
    match std::env::var("LOCKSS_ORACLE_SEEDS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("LOCKSS_ORACLE_SEEDS={v:?} is not a seed count")),
        Err(_) => DEFAULT_SEEDS,
    }
}

/// The founding-population rule as the reference keeps it.
#[derive(Clone, Copy)]
struct RefPopulation {
    bound: u32,
    me: Identity,
    grade: Grade,
    since: SimTime,
}

/// The tree-map known-peers list: the reference side.
#[derive(Default)]
struct RefKnown {
    entries: BTreeMap<Identity, (Grade, SimTime)>,
    population: Option<RefPopulation>,
}

/// `grade` after the decay periods between `updated` and `now`.
fn decayed(grade: Grade, updated: SimTime, now: SimTime, decay: Duration) -> Grade {
    if decay.is_zero() {
        return grade;
    }
    let periods = now.since(updated).as_millis() / decay.as_millis();
    match periods {
        0 => grade,
        1 => grade.lowered(),
        _ => Grade::Debt,
    }
}

impl RefKnown {
    fn standing(&self, id: Identity, now: SimTime, decay: Duration) -> Standing {
        if let Some(&(grade, updated)) = self.entries.get(&id) {
            return Standing::Known(decayed(grade, updated, now, decay));
        }
        match self.population {
            Some(p) if id != p.me && id.loyal_index().is_some_and(|i| i < p.bound) => {
                Standing::Known(decayed(p.grade, p.since, now, decay))
            }
            _ => Standing::Unknown,
        }
    }

    fn raise(&mut self, id: Identity, now: SimTime, decay: Duration) {
        let grade = match self.standing(id, now, decay) {
            Standing::Unknown => Grade::Even,
            Standing::Known(g) => g.raised(),
        };
        self.entries.insert(id, (grade, now));
    }

    fn lower(&mut self, id: Identity, now: SimTime, decay: Duration) {
        let grade = match self.standing(id, now, decay) {
            Standing::Unknown => Grade::Debt,
            Standing::Known(g) => g.lowered(),
        };
        self.entries.insert(id, (grade, now));
    }
}

/// The calls the program makes of the table under test.
trait Table {
    fn seed(&mut self, id: Identity, grade: Grade, now: SimTime);
    fn assume_population(&mut self, bound: u32, me: Identity, grade: Grade, at: SimTime);
    fn standing(&self, id: Identity, now: SimTime, decay: Duration) -> Standing;
    fn raise(&mut self, id: Identity, now: SimTime, decay: Duration);
    fn lower(&mut self, id: Identity, now: SimTime, decay: Duration);
    fn penalize(&mut self, id: Identity, now: SimTime);
    fn len(&self) -> usize;
}

impl Table for KnownPeers {
    fn seed(&mut self, id: Identity, grade: Grade, now: SimTime) {
        KnownPeers::seed(self, id, grade, now);
    }
    fn assume_population(&mut self, bound: u32, me: Identity, grade: Grade, at: SimTime) {
        KnownPeers::assume_population(self, bound, me, grade, at);
    }
    fn standing(&self, id: Identity, now: SimTime, decay: Duration) -> Standing {
        KnownPeers::standing(self, id, now, decay)
    }
    fn raise(&mut self, id: Identity, now: SimTime, decay: Duration) {
        KnownPeers::raise(self, id, now, decay);
    }
    fn lower(&mut self, id: Identity, now: SimTime, decay: Duration) {
        KnownPeers::lower(self, id, now, decay);
    }
    fn penalize(&mut self, id: Identity, now: SimTime) {
        KnownPeers::penalize(self, id, now);
    }
    fn len(&self) -> usize {
        KnownPeers::len(self)
    }
}

/// A mutant: the list stores every stamp without its top bit, as a
/// packing one bit short would. Reads see the true clock.
struct DroppedStampBit(KnownPeers);

impl DroppedStampBit {
    fn stored(now: SimTime) -> SimTime {
        SimTime(now.as_millis() & (KnownPeers::LAST_STAMP.as_millis() >> 1))
    }
}

impl Table for DroppedStampBit {
    fn seed(&mut self, id: Identity, grade: Grade, now: SimTime) {
        self.0.seed(id, grade, Self::stored(now));
    }
    fn assume_population(&mut self, bound: u32, me: Identity, grade: Grade, at: SimTime) {
        self.0.assume_population(bound, me, grade, at);
    }
    fn standing(&self, id: Identity, now: SimTime, decay: Duration) -> Standing {
        self.0.standing(id, now, decay)
    }
    fn raise(&mut self, id: Identity, now: SimTime, decay: Duration) {
        self.0.raise(id, Self::stored(now), decay);
    }
    fn lower(&mut self, id: Identity, now: SimTime, decay: Duration) {
        self.0.lower(id, Self::stored(now), decay);
    }
    fn penalize(&mut self, id: Identity, now: SimTime) {
        self.0.penalize(id, Self::stored(now));
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Loyal 0..FOUNDERS are the founding population; loyal
/// FOUNDERS..FOUNDERS+3 joined late.
const FOUNDERS: u32 = 10;

/// Every identity the program touches, and so every one compared.
fn universe() -> Vec<Identity> {
    let loyal = (0..FOUNDERS + 3).map(Identity::loyal);
    let minions = (0..4).map(|i| Identity(Identity::MINION_BASE + i));
    loyal.chain(minions).collect()
}

fn pick_grade(gen: &mut SimRng) -> Grade {
    [Grade::Debt, Grade::Even, Grade::Credit][gen.below(3)]
}

/// What one seed's program reached, summed over seeds by the test.
#[derive(Default)]
struct Reached {
    /// Steps whose clock advance was exactly `k · decay`, and one
    /// millisecond short or over.
    on_boundary: u64,
    beside_boundary: u64,
    /// Entries written at [`KnownPeers::LAST_STAMP`] itself.
    at_last_stamp: u64,
    /// Standings that read `Known(Debt)`, `Even`, `Credit` and `Unknown`.
    standings: [u64; 4],
}

/// Runs seed `seed`'s program on `table` and the reference; the first
/// difference is the error.
fn drive(seed: u64, table: &mut impl Table, reached: &mut Reached) -> Result<(), String> {
    let mut gen = SimRng::seed_from_u64(0x4e90_7a7e ^ (seed << 20));
    let decay = [
        Duration::ZERO,
        Duration(7),
        Duration::from_days(3),
        Duration::from_days(180),
    ][gen.below(4)];
    // Near the limit, the program starts just low enough that a run of
    // its longest steps can reach it; the clock then stops at the limit.
    let near_limit = gen.chance(0.4);
    let mut now = if near_limit {
        let budget = Duration(decay.as_millis().max(1) * (1 + gen.below(40) as u64));
        KnownPeers::LAST_STAMP.saturating_sub(budget)
    } else {
        SimTime(gen.below(1_000) as u64)
    };
    let ids = universe();
    let mut reference = RefKnown::default();

    for step in 0..STEPS {
        let periods = (1 + gen.below(3) as u64) * decay.as_millis();
        let (advance, boundary) = match gen.below(6) {
            0 => (0, None),
            1 | 2 => (periods, Some(&mut reached.on_boundary)),
            3 => (
                periods.saturating_sub(1) + 2 * gen.below(2) as u64,
                Some(&mut reached.beside_boundary),
            ),
            4 => (gen.below(1_000) as u64, None),
            _ => (Duration::from_days(gen.below(400) as u64).as_millis(), None),
        };
        let next = now
            .as_millis()
            .saturating_add(advance)
            .min(KnownPeers::LAST_STAMP.as_millis());
        if let Some(count) = boundary {
            *count += u64::from(!decay.is_zero() && next - now.as_millis() == advance);
        }
        now = SimTime(next);
        let id = ids[gen.below(ids.len())];
        let wrote = match gen.below(20) {
            0 => {
                let (bound, me) = (gen.below(FOUNDERS as usize + 2) as u32, ids[gen.below(4)]);
                let (grade, at) = (pick_grade(&mut gen), SimTime(gen.below(2) as u64 * now.0));
                table.assume_population(bound, me, grade, at);
                reference.population = Some(RefPopulation {
                    bound,
                    me,
                    grade,
                    since: at,
                });
                false
            }
            1 => {
                let grade = pick_grade(&mut gen);
                table.seed(id, grade, now);
                reference.entries.insert(id, (grade, now));
                true
            }
            2..=7 => {
                table.raise(id, now, decay);
                reference.raise(id, now, decay);
                true
            }
            8..=12 => {
                table.lower(id, now, decay);
                reference.lower(id, now, decay);
                true
            }
            13 | 14 => {
                table.penalize(id, now);
                reference.entries.insert(id, (Grade::Debt, now));
                true
            }
            _ => false, // a read-only step: the comparison below is the call
        };
        reached.at_last_stamp += u64::from(wrote && now == KnownPeers::LAST_STAMP);
        for &probe in &ids {
            let got = table.standing(probe, now, decay);
            let want = reference.standing(probe, now, decay);
            if got != want {
                return Err(format!(
                    "seed {seed} step {step} at {}ms (decay {decay}): standing of {probe} \
                     is {got:?}, reference says {want:?}",
                    now.as_millis()
                ));
            }
            reached.standings[match got {
                Standing::Known(g) => g as usize,
                Standing::Unknown => 3,
            }] += 1;
        }
        if table.len() != reference.entries.len() {
            return Err(format!(
                "seed {seed} step {step}: {} entries, reference holds {}",
                table.len(),
                reference.entries.len()
            ));
        }
    }
    Ok(())
}

#[test]
fn known_peers_match_the_tree_map_reference() {
    let mut reached = Reached::default();
    for seed in 0..seeds() {
        let mut known = KnownPeers::new();
        if let Err(e) = drive(seed, &mut known, &mut reached) {
            panic!("{e}");
        }
    }
    // The sweep must actually reach what it claims to cover.
    let n = seeds();
    assert!(
        reached.on_boundary >= n,
        "{} steps on a decay boundary",
        reached.on_boundary
    );
    assert!(
        reached.beside_boundary >= n,
        "{} steps beside a decay boundary",
        reached.beside_boundary
    );
    assert!(
        reached.at_last_stamp >= n,
        "{} entries stamped at the last stamp",
        reached.at_last_stamp
    );
    assert!(
        reached.standings.iter().all(|&s| s >= n),
        "standings read (debt, even, credit, unknown): {:?}",
        reached.standings
    );
}

/// A hash bucket is the 8-byte identity and the 8-byte packed entry.
#[test]
fn a_bucket_is_sixteen_bytes() {
    assert_eq!(KnownPeers::BUCKET_BYTES, 16);
    assert_eq!(KnownPeers::LAST_STAMP, SimTime((1 << 62) - 1));
}

/// The oracle is sharp enough to catch a packing one stamp bit short.
#[test]
fn the_oracle_catches_a_dropped_stamp_bit() {
    let mut reached = Reached::default();
    let caught = (0..seeds())
        .find_map(|seed| drive(seed, &mut DroppedStampBit(KnownPeers::new()), &mut reached).err());
    let e = caught.expect("the dropped stamp bit went unnoticed");
    assert!(e.contains("standing of"), "{e}");
}
