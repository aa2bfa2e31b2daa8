//! Differential oracle for the admission filter's tables.
//!
//! [`AdmissionControl`] keeps its introductions and last-admission stamps
//! in flat sorted arrays; `RefAdmission` below is its slow twin, the pair
//! of `BTreeMap`s those arrays replaced, with the filter's decision
//! sequence written out over them. A seeded random program of `introduce`
//! and `filter` calls runs against both, and after every step the verdict,
//! the outstanding introductions and the refractory deadline must be
//! equal. The flat table may forget stamps the refractory period has
//! expired, so its stamp count must lie between the reference's live
//! stamps and all of them. Each side draws from its own [`SimRng`] started
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
//! - stamp tables that fill up holding expired stamps, so the flat table
//!   forgets some;
//! - every ablation switch the filter reads.
//!
//! A second program holds [`AdmissionControl::filter_unseen`] to
//! `filter`: two flat tables take the same calls, except that an
//! invitation from a burst identity (a minion no introduction or
//! known-peers entry names) goes through the unseen entry on one side and
//! through `filter` on the other. After every step the verdict, the next
//! RNG draw, the refractory deadline and the stamp count must be equal,
//! under every ablation switch the config generator draws.
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
    steps_with_stamps_forgotten: u64,
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
        // The flat table forgets expired stamps when it fills up; the
        // reference never forgets. Every stamp still live must be kept.
        let live = slow
            .last_admission
            .values()
            .filter(|&&t| now.since(t) < cfg.refractory)
            .count();
        let stamps = fast.last_admission_entries();
        reached.steps_with_stamps_forgotten += u64::from(stamps < slow.last_admission.len());
        assert!(
            (live..=slow.last_admission.len()).contains(&stamps),
            "{at}: {stamps} last-admission stamps, reference holds {live} live of {}",
            slow.last_admission.len()
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
    assert!(
        reached.steps_with_stamps_forgotten >= seeds(),
        "only {} steps ran with expired stamps forgotten",
        reached.steps_with_stamps_forgotten
    );
}

/// Burst identities start here, clear of the minions `pick_identity`
/// introduces and grades.
const BURST_BASE: u64 = Identity::MINION_BASE + (1 << 36);

/// What the unseen-entry program reached, summed over seeds.
#[derive(Default)]
struct UnseenReached {
    /// Burst verdicts, indexed by verdict code.
    verdicts: [u64; 5],
    /// Burst steps that retried an identity admitted before.
    retried_admitted: u64,
    /// Burst steps under no_refractory, no_introductions, no_reputation.
    ablated: [u64; 3],
}

fn drive_unseen(seed: u64, reached: &mut UnseenReached) {
    let mut gen = SimRng::seed_from_u64(0x0e5e_e115 ^ (seed << 20));
    let cfg = random_config(&mut gen);
    let mut known = KnownPeers::new();
    known.assume_population(FOUNDERS, Identity::loyal(0), Grade::Even, SimTime::ZERO);
    let introducers = [Identity::loyal(2), Identity::loyal(5), Identity::loyal(7)];

    let (mut unseen, mut full) = (AdmissionControl::new(), AdmissionControl::new());
    let (mut unseen_rng, mut full_rng) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
    let mut now = SimTime::ZERO;
    let mut next_burst = BURST_BASE;
    let mut admitted: Vec<Identity> = Vec::new();

    for step in 0..STEPS {
        now += match gen.below(4) {
            0 => Duration::ZERO,
            1 => Duration(cfg.refractory.0 - 1 + gen.below(3) as u64),
            2 => Duration::MINUTE * (1 + gen.below(600) as u64),
            _ => Duration(1 + gen.below(60_000) as u64),
        };
        let at = format!("seed {seed} step {step} at {now:?}");
        match gen.below(10) {
            0..=5 => {
                // A burst identity: fresh, or one admitted earlier (bursts
                // never introduce or grade it, so it stays unseen).
                let poller = match admitted.len() {
                    n if n > 0 && gen.chance(0.3) => {
                        reached.retried_admitted += 1;
                        admitted[gen.below(n)]
                    }
                    _ => {
                        next_burst += 1;
                        Identity(next_burst)
                    }
                };
                let got = unseen.filter_unseen(poller, now, &cfg, &mut unseen_rng);
                let want = full.filter(poller, &known, now, &cfg, &mut full_rng);
                assert_eq!(got, want, "{at}: verdict on burst identity {poller}");
                reached.verdicts[got.code() as usize] += 1;
                let ablation = &cfg.ablation;
                let switches = [
                    ablation.no_refractory,
                    ablation.no_introductions,
                    ablation.no_reputation,
                ];
                for (n, on) in reached.ablated.iter_mut().zip(switches) {
                    *n += u64::from(on);
                }
                if got.is_admitted() {
                    admitted.push(poller);
                }
            }
            6 | 7 => {
                // An ordinary invitation, through `filter` on both sides.
                let poller = pick_identity(&mut gen);
                let got = unseen.filter(poller, &known, now, &cfg, &mut unseen_rng);
                let want = full.filter(poller, &known, now, &cfg, &mut full_rng);
                assert_eq!(got, want, "{at}: verdict on {poller}");
            }
            8 => {
                let (introducee, by) = (pick_identity(&mut gen), introducers[gen.below(3)]);
                unseen.introduce(introducee, by, now, &cfg);
                full.introduce(introducee, by, now, &cfg);
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
            unseen_rng.clone().u64(),
            full_rng.clone().u64(),
            "{at}: the two sides drew differently"
        );
        assert_eq!(
            unseen.refractory_until(),
            full.refractory_until(),
            "{at}: refractory deadline"
        );
        assert_eq!(
            unseen.last_admission_entries(),
            full.last_admission_entries(),
            "{at}: last-admission stamps"
        );
        assert_eq!(
            unseen.outstanding_introductions(),
            full.outstanding_introductions(),
            "{at}: outstanding introductions"
        );
    }
}

#[test]
fn the_unseen_entry_matches_filter() {
    let mut reached = UnseenReached::default();
    for seed in 0..seeds() {
        drive_unseen(seed, &mut reached);
    }
    // Burst identities are never introduced, so never admitted-introduced;
    // they are unknown, so never rate-limited.
    let [admitted, introduced, dropped, refractory, rate_limited] = reached.verdicts;
    assert_eq!((introduced, rate_limited), (0, 0));
    assert!(
        [admitted, dropped, refractory]
            .iter()
            .all(|&n| n >= seeds()),
        "burst verdicts reached (admitted, dropped, refractory): {:?}",
        [admitted, dropped, refractory]
    );
    assert!(
        reached.retried_admitted >= seeds(),
        "only {} bursts retried an admitted identity",
        reached.retried_admitted
    );
    assert!(
        reached.ablated.iter().all(|&n| n >= seeds()),
        "burst steps under no_refractory, no_introductions, no_reputation: {:?}",
        reached.ablated
    );
}

/// Plain-list model of a poll's invitees, nominated pool and votes.
#[derive(Default)]
struct RefPoll {
    /// (identity, inner, voted), in invitation order.
    invitees: Vec<(Identity, bool, bool)>,
    /// `None` once the outer circle launched.
    pool: Option<Vec<Identity>>,
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
/// solicited, unsolicited and repeated, and the outer-circle launch taking
/// the pool part-way: the poll's answers must be those of the plain lists,
/// the pool must keep first-seen order, and nominations after the launch
/// must be dropped.
#[test]
fn poll_membership_matches_plain_lists() {
    let universe: Vec<Identity> = (0..24).map(Identity::loyal).collect();
    let (mut duplicates, mut refused, mut dropped) = (0u64, 0u64, 0u64);
    for seed in 0..seeds() {
        let mut gen = SimRng::seed_from_u64(0x9011_5eed ^ (seed << 20));
        let mut poll = PollState::new(PollId(seed), AuId(0), SimTime::ZERO, SimTime(1_000));
        let mut model = RefPoll {
            pool: Some(Vec::new()),
            ..RefPoll::default()
        };
        let launch = 40 + gen.below(60);
        for step in 0..120 {
            let id = universe[gen.below(universe.len())];
            let at = format!("seed {seed} step {step} on {id}");
            if step == launch {
                let pool = model.pool.take().expect("one launch");
                assert_eq!(poll.take_pool(), pool, "{at}: launch takes the pool");
            }
            match gen.below(4) {
                0 if !model.invitees.iter().any(|i| i.0 == id) => {
                    let inner = gen.chance(0.6);
                    assert_eq!(poll.add_invitee(id, inner), model.invitees.len(), "{at}");
                    model.invitees.push((id, inner, false));
                }
                0 | 1 => {
                    let fresh = match &mut model.pool {
                        Some(pool) => {
                            let fresh = !pool.contains(&id);
                            if fresh {
                                pool.push(id);
                            }
                            duplicates += u64::from(!fresh);
                            fresh
                        }
                        None => {
                            dropped += 1;
                            false
                        }
                    };
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
    assert!(
        dropped >= seeds(),
        "only {dropped} nominations after launch"
    );
}
