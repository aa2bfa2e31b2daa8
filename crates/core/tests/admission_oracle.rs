//! Differential oracle for the admission filter's tables.
//!
//! [`AdmissionControl`] keeps its introductions and last-admission stamps
//! in flat sorted arrays; `RefAdmission` below is its slow twin, the pair
//! of `BTreeMap`s those arrays replaced, with the filter's decision
//! sequence written out over them. A seeded random program of `introduce`
//! and `filter` calls runs against both, and after every step the verdict,
//! the outstanding introductions, the stamp count and the refractory
//! deadline must be equal. Each side draws from its own [`SimRng`] started
//! at the same seed, and the two streams must still agree when the program
//! ends: a filter that drew once more or once less would move every later
//! draw of a real run.
//!
//! What the program is built to reach:
//!
//! - founding-population, in-debt, late-joining and minion identities, with
//!   standings that change under the filter between calls;
//! - introductions at and over the cap (caps 0, 1, 2, 3 and 8) whose `when`
//!   stamps are equal, so the eviction's tie-break is exercised — it must
//!   take the lowest introducee among the oldest;
//! - a handful of introducers used again and again, so consuming one
//!   introduction forgets its siblings;
//! - clock steps of zero, of exactly `refractory`, and one millisecond
//!   either side, with the last admitted identity retried across them;
//! - every ablation switch the filter reads.
//!
//! The same file holds the parity check of [`PollState`]'s invitee and
//! nominated-pool membership against plain lists.
//!
//! `LOCKSS_ORACLE_SEEDS=<n>` sets the number of seeds, as it does for
//! `crates/sim/tests/engine_oracle.rs` (the nightly CI job runs 20× the
//! default).

use std::collections::BTreeMap;

use lockss_core::admission::AdmissionControl;
use lockss_core::poller::PollState;
use lockss_core::reputation::{Grade, KnownPeers, Standing};
use lockss_core::{AdmissionVerdict, Identity, PollId, ProtocolConfig};
use lockss_sim::{Duration, SimRng, SimTime};
use lockss_storage::AuId;

const DEFAULT_SEEDS: u64 = 400;
const STEPS: usize = 400;

fn seeds() -> u64 {
    match std::env::var("LOCKSS_ORACLE_SEEDS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("LOCKSS_ORACLE_SEEDS={v:?} is not a seed count")),
        Err(_) => DEFAULT_SEEDS,
    }
}

/// The tree-map admission state: the reference side.
#[derive(Default)]
struct RefAdmission {
    refractory_until: Option<SimTime>,
    last_admission: BTreeMap<Identity, SimTime>,
    /// introducee -> (introducer, when)
    introductions: BTreeMap<Identity, (Identity, SimTime)>,
    /// Cap evictions that had to choose among equally old introductions.
    tied_evictions: u64,
    /// Introductions forgotten because a sibling was consumed.
    siblings_forgotten: u64,
}

impl RefAdmission {
    fn introduce(
        &mut self,
        introducee: Identity,
        introducer: Identity,
        now: SimTime,
        cfg: &ProtocolConfig,
    ) {
        if self.introductions.len() >= cfg.max_introductions
            && !self.introductions.contains_key(&introducee)
        {
            let oldest = self
                .introductions
                .iter()
                .min_by_key(|(_, (_, when))| *when)
                .map(|(&id, &(_, when))| (id, when));
            if let Some((oldest, when)) = oldest {
                let as_old = self.introductions.values().filter(|v| v.1 == when).count();
                self.tied_evictions += u64::from(as_old > 1);
                self.introductions.remove(&oldest);
            }
        }
        self.introductions.insert(introducee, (introducer, now));
    }

    fn filter(
        &mut self,
        poller: Identity,
        known: &KnownPeers,
        now: SimTime,
        cfg: &ProtocolConfig,
        rng: &mut SimRng,
    ) -> AdmissionVerdict {
        if !cfg.ablation.no_introductions {
            if let Some((introducer, _)) = self.introductions.remove(&poller) {
                let before = self.introductions.len();
                self.introductions.retain(|_, (by, _)| *by != introducer);
                self.siblings_forgotten += (before - self.introductions.len()) as u64;
                self.last_admission.insert(poller, now);
                return AdmissionVerdict::AdmittedIntroduced;
            }
        }
        let standing = match known.standing(poller, now, cfg.grade_decay) {
            Standing::Known(_) if cfg.ablation.no_reputation => Standing::Known(Grade::Even),
            other => other,
        };
        if matches!(standing, Standing::Known(Grade::Even | Grade::Credit)) {
            if let Some(&last) = self.last_admission.get(&poller) {
                if now.since(last) < cfg.refractory {
                    return AdmissionVerdict::RateLimited;
                }
            }
            self.last_admission.insert(poller, now);
            return AdmissionVerdict::Admitted;
        }
        let in_refractory = matches!(self.refractory_until, Some(until) if now < until);
        if !cfg.ablation.no_refractory && in_refractory {
            return AdmissionVerdict::Refractory;
        }
        let drop_p = match standing {
            Standing::Unknown => cfg.drop_unknown,
            Standing::Known(_) => cfg.drop_debt,
        };
        if rng.chance(drop_p) {
            return AdmissionVerdict::RandomDrop;
        }
        if !cfg.ablation.no_refractory {
            self.refractory_until = Some(now + cfg.refractory);
        }
        self.last_admission.insert(poller, now);
        AdmissionVerdict::Admitted
    }
}

/// Founding-population identities are loyal 1..FOUNDERS (loyal 0 owns the
/// cell); loyal FOUNDERS..FOUNDERS+4 joined late and start unknown.
const FOUNDERS: u32 = 12;

fn pick_identity(gen: &mut SimRng) -> Identity {
    match gen.below(4) {
        0 | 1 => Identity::loyal(1 + gen.below(FOUNDERS as usize - 1) as u32),
        2 => Identity::loyal(FOUNDERS + gen.below(4) as u32),
        _ => Identity(Identity::MINION_BASE + gen.below(6) as u64),
    }
}

fn random_config(gen: &mut SimRng) -> ProtocolConfig {
    let mut cfg = ProtocolConfig {
        max_introductions: [0, 1, 2, 3, 8][gen.below(5)],
        refractory: [Duration::HOUR, Duration::DAY][gen.below(2)],
        grade_decay: [Duration::ZERO, Duration::from_days(3), Duration::MONTH * 6][gen.below(3)],
        ..ProtocolConfig::default()
    };
    if gen.chance(0.5) {
        // Softer drops, so the unknown/in-debt path admits often enough to
        // open refractory periods inside a short program.
        (cfg.drop_unknown, cfg.drop_debt) = (0.5, 0.25);
    }
    cfg.ablation.no_introductions = gen.chance(0.1);
    cfg.ablation.no_refractory = gen.chance(0.1);
    cfg.ablation.no_reputation = gen.chance(0.1);
    cfg.validate().expect("the oracle's configs are valid");
    cfg
}

/// What one seed's program reached, summed over seeds by the test.
#[derive(Default)]
struct Reached {
    /// Indexed by verdict code.
    verdicts: [u64; 5],
    tied_evictions: u64,
    siblings_forgotten: u64,
}

fn drive(seed: u64, reached: &mut Reached) {
    let mut gen = SimRng::seed_from_u64(0xad31_55ed ^ (seed << 20));
    let cfg = random_config(&mut gen);
    let mut known = KnownPeers::new();
    known.assume_population(FOUNDERS, Identity::loyal(0), Grade::Even, SimTime::ZERO);
    for i in 1..4 {
        known.penalize(Identity::loyal(i), SimTime::ZERO); // in debt from the start
    }
    let introducers = [Identity::loyal(2), Identity::loyal(5), Identity::loyal(7)];

    let (mut fast, mut slow) = (AdmissionControl::new(), RefAdmission::default());
    let (mut fast_rng, mut slow_rng) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
    let mut now = SimTime::ZERO;
    let mut last_admitted = Identity::loyal(1);

    for step in 0..STEPS {
        let straddle = gen.below(6) == 0;
        now += match gen.below(5) {
            _ if straddle => Duration(cfg.refractory.0 - 1 + gen.below(3) as u64),
            0 | 1 => Duration::ZERO,
            2 => Duration(1 + gen.below(60_000) as u64),
            3 => Duration::MINUTE * (1 + gen.below(600) as u64),
            _ => Duration::from_days(1 + gen.below(5) as u64),
        };
        let at = format!("seed {seed} step {step} at {now:?}");
        match gen.below(10) {
            0..=4 => {
                let (introducee, by) = (pick_identity(&mut gen), introducers[gen.below(3)]);
                fast.introduce(introducee, by, now, &cfg);
                slow.introduce(introducee, by, now, &cfg);
            }
            5..=8 => {
                let poller = if straddle || gen.chance(0.2) {
                    last_admitted
                } else {
                    pick_identity(&mut gen)
                };
                let got = fast.filter(poller, &known, now, &cfg, &mut fast_rng);
                let want = slow.filter(poller, &known, now, &cfg, &mut slow_rng);
                assert_eq!(got, want, "{at}: verdict on {poller}");
                reached.verdicts[got.code() as usize] += 1;
                if got.is_admitted() {
                    last_admitted = poller;
                }
            }
            _ => {
                let id = pick_identity(&mut gen);
                match gen.below(3) {
                    0 => known.raise(id, now, cfg.grade_decay),
                    1 => known.lower(id, now, cfg.grade_decay),
                    _ => known.penalize(id, now),
                }
            }
        }
        assert_eq!(
            fast.outstanding_introductions(),
            slow.introductions.len(),
            "{at}: outstanding introductions"
        );
        assert_eq!(
            fast.last_admission_entries(),
            slow.last_admission.len(),
            "{at}: last-admission stamps"
        );
        assert_eq!(
            fast.refractory_until(),
            slow.refractory_until,
            "{at}: refractory deadline"
        );
    }
    assert_eq!(
        fast_rng.u64(),
        slow_rng.u64(),
        "seed {seed}: the two sides drew differently"
    );
    reached.tied_evictions += slow.tied_evictions;
    reached.siblings_forgotten += slow.siblings_forgotten;
}

#[test]
fn admission_matches_the_tree_map_reference() {
    let mut reached = Reached::default();
    for seed in 0..seeds() {
        drive(seed, &mut reached);
    }
    // The sweep must actually reach what it claims to cover.
    assert!(
        reached.verdicts.iter().all(|&n| n >= seeds()),
        "verdicts reached (admitted, introduced, dropped, refractory, rate-limited): {:?}",
        reached.verdicts
    );
    assert!(
        reached.tied_evictions >= seeds(),
        "only {} cap evictions chose among equal stamps",
        reached.tied_evictions
    );
    assert!(
        reached.siblings_forgotten >= seeds(),
        "only {} sibling introductions were forgotten",
        reached.siblings_forgotten
    );
}

/// Plain-list model of a poll's invitees, nominated pool and votes.
#[derive(Default)]
struct RefPoll {
    /// (identity, inner, voted), in invitation order.
    invitees: Vec<(Identity, bool, bool)>,
    pool: Vec<Identity>,
    /// (voter, inner), in arrival order.
    votes: Vec<(Identity, bool)>,
}

impl RefPoll {
    fn record_vote(&mut self, voter: Identity) -> bool {
        match self.invitees.iter_mut().find(|i| i.0 == voter) {
            Some(invitee) if !invitee.2 => {
                invitee.2 = true;
                self.votes.push((voter, invitee.1));
                true
            }
            _ => false, // unsolicited, or a duplicate
        }
    }
}

/// Two voters nominating overlapping candidates, invitations (some of them
/// of pooled candidates, as `launch_outer` makes them), votes that are
/// solicited, unsolicited and repeated: the poll's answers must be those
/// of the plain lists, and the pool must keep first-seen order.
#[test]
fn poll_membership_matches_plain_lists() {
    let universe: Vec<Identity> = (0..24).map(Identity::loyal).collect();
    let (mut duplicates, mut refused) = (0u64, 0u64);
    for seed in 0..seeds() {
        let mut gen = SimRng::seed_from_u64(0x9011_5eed ^ (seed << 20));
        let mut poll = PollState::new(
            PollId(seed),
            AuId(0),
            SimTime::ZERO,
            SimTime(1_000),
            SimTime(2_000),
        );
        let mut model = RefPoll::default();
        for step in 0..120 {
            let id = universe[gen.below(universe.len())];
            let at = format!("seed {seed} step {step} on {id}");
            match gen.below(4) {
                0 if !model.invitees.iter().any(|i| i.0 == id) => {
                    let inner = gen.chance(0.6);
                    assert_eq!(poll.add_invitee(id, inner), model.invitees.len(), "{at}");
                    model.invitees.push((id, inner, false));
                }
                0 | 1 => {
                    let fresh = !model.pool.contains(&id);
                    if fresh {
                        model.pool.push(id);
                    }
                    duplicates += u64::from(!fresh);
                    assert_eq!(poll.nominate(id), fresh, "{at}: nominate");
                }
                _ => {
                    let accepted = model.record_vote(id);
                    refused += u64::from(!accepted);
                    assert_eq!(poll.record_vote(id, vec![]), accepted, "{at}: vote");
                }
            }
            assert_eq!(poll.nominated_pool, model.pool, "{at}: pool order");
            let votes: Vec<_> = poll.votes.iter().map(|v| (v.voter, v.inner)).collect();
            assert_eq!(votes, model.votes, "{at}: votes");
        }
        for &id in &universe {
            let want = model.invitees.iter().position(|i| i.0 == id);
            assert_eq!(poll.invitee_index(id), want, "seed {seed}: index of {id}");
            assert_eq!(poll.has_invitee(id), want.is_some(), "seed {seed}: {id}");
        }
    }
    assert!(
        duplicates >= seeds(),
        "only {duplicates} repeat nominations"
    );
    assert!(refused >= seeds(), "only {refused} votes refused");
}
