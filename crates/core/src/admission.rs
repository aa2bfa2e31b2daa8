//! The admission-control filter (§5.1).
//!
//! Decides, per AU, whether an arriving poll invitation is even
//! *considered*. The decision sequence is:
//!
//! 1. introduced identities bypass drops and refractory periods, consuming
//!    the introduction;
//! 2. during a refractory period, unknown and in-debt pollers are
//!    auto-rejected for free;
//! 3. unknown pollers are dropped with probability 0.90, in-debt pollers
//!    with 0.80 (whitewashing is worse than staying in debt);
//! 4. an admitted unknown/in-debt invitation starts a new refractory
//!    period (at most one such admission per period);
//! 5. known even/credit pollers bypass drops but are rate-limited to one
//!    admission per refractory period each (the self-clocking liability
//!    cap).
//!
//! A last-admission stamp matters only while it is younger than the
//! refractory period: an older one rate-limits nobody, and step 5 treats
//! it exactly as a missing one. So a cell forgets its expired stamps
//! whenever its table is full, rather than growing to hold every identity
//! it ever admitted. This relies on a cell's refractory period being fixed
//! for its lifetime, which the world's immutable config guarantees, and on
//! time never running backwards.

use lockss_sim::SimRng;
use lockss_sim::{Duration, SimTime};

use crate::config::ProtocolConfig;
use crate::reputation::{Grade, KnownPeers, Standing};
use crate::trace::AdmissionVerdict;
use crate::types::Identity;

/// `last_admission` grows this many stamps at a time, and only when a full
/// table still has no room after its expired stamps are dropped. A table
/// then holds about as many identities as the cell admits in one refractory
/// period, and there are thousands of cells, so doubling would leave up to
/// half of the largest table in the world unused; at 256 bytes a step the
/// copying stays negligible.
const STAMP_CHUNK: usize = 16;

/// One outstanding introduction (§5.1).
#[derive(Clone, Copy, Debug)]
struct Introduction {
    introducee: Identity,
    introducer: Identity,
    when: SimTime,
}

/// Per-AU admission state of one peer.
///
/// Both tables are flat arrays sorted by identity: an invitation probes
/// them once or twice and there are thousands of cells, so what a lookup
/// costs is the cache lines it touches, not its comparison count.
#[derive(Clone, Debug, Default)]
pub struct AdmissionControl {
    /// End of the current refractory period, if one is running.
    refractory_until: Option<SimTime>,
    /// Last admission instant per identity (the per-peer liability cap),
    /// sorted by identity. Holds only identities admitted here, less the
    /// stamps that had expired when the table last filled up; see the
    /// module docs.
    last_admission: Vec<(Identity, SimTime)>,
    /// Outstanding introductions, sorted by introducee and never longer
    /// than `max_introductions` (one when the cap is zero).
    introductions: Vec<Introduction>,
}

impl AdmissionControl {
    /// Fresh state.
    pub fn new() -> AdmissionControl {
        AdmissionControl::default()
    }

    /// Records an introduction of `introducee` by `introducer` (§5.1),
    /// evicting the oldest if the cap is reached.
    pub fn introduce(
        &mut self,
        introducee: Identity,
        introducer: Identity,
        now: SimTime,
        cfg: &ProtocolConfig,
    ) {
        let fresh = Introduction {
            introducee,
            introducer,
            when: now,
        };
        match self.introduction_slot(introducee) {
            Ok(at) => self.introductions[at] = fresh,
            Err(mut at) => {
                if self.introductions.len() >= cfg.max_introductions {
                    // Among equally old introductions the lowest introducee
                    // goes: `min_by_key` keeps the first minimum.
                    let oldest =
                        (0..self.introductions.len()).min_by_key(|&i| self.introductions[i].when);
                    if let Some(oldest) = oldest {
                        self.introductions.remove(oldest);
                        at -= usize::from(oldest < at);
                    }
                }
                self.introductions.insert(at, fresh);
            }
        }
    }

    /// Where `introducee`'s introduction is (`Ok`) or would be inserted
    /// (`Err`).
    fn introduction_slot(&self, introducee: Identity) -> Result<usize, usize> {
        self.introductions
            .binary_search_by_key(&introducee, |i| i.introducee)
    }

    /// Number of outstanding introductions.
    pub fn outstanding_introductions(&self) -> usize {
        self.introductions.len()
    }

    /// Number of identities with a recorded last admission (memory
    /// reports). Expired stamps are dropped only when the table is full,
    /// so this lies between the stamps still live and all ever written.
    pub fn last_admission_entries(&self) -> usize {
        self.last_admission.len()
    }

    /// Approximate heap bytes of both tables: capacity × entry size.
    pub fn heap_bytes(&self) -> usize {
        self.last_admission.capacity() * std::mem::size_of::<(Identity, SimTime)>()
            + self.introductions.capacity() * std::mem::size_of::<Introduction>()
    }

    /// Where `id`'s last-admission stamp is (`Ok`) or would be inserted
    /// (`Err`).
    fn stamp_slot(&self, id: Identity) -> Result<usize, usize> {
        self.last_admission.binary_search_by_key(&id, |e| e.0)
    }

    /// Files `id`'s first stamp at `at`, as [`Self::stamp_slot`] placed it.
    /// A full table first drops the stamps `refractory` has expired, and
    /// grows only if that frees nothing.
    fn insert_stamp(&mut self, mut at: usize, id: Identity, now: SimTime, refractory: Duration) {
        let table = &mut self.last_admission;
        if table.len() == table.capacity() {
            table.retain(|&(_, t)| now.since(t) < refractory);
            at = table.partition_point(|e| e.0 < id);
            if table.len() == table.capacity() {
                table.reserve_exact(STAMP_CHUNK);
            }
        }
        table.insert(at, (id, now));
    }

    /// Records `now` as `id`'s last admission.
    fn stamp_admission(&mut self, id: Identity, now: SimTime, refractory: Duration) {
        match self.stamp_slot(id) {
            Ok(at) => self.last_admission[at].1 = now,
            Err(at) => self.insert_stamp(at, id, now, refractory),
        }
    }

    /// True if a refractory period is active at `now`.
    pub fn in_refractory(&self, now: SimTime) -> bool {
        matches!(self.refractory_until, Some(until) if now < until)
    }

    /// When the current refractory period ends, if one is running. (The
    /// paper's adversary has insider information, §3.1 — attack strategies
    /// may time their bursts with this.)
    pub fn refractory_until(&self) -> Option<SimTime> {
        self.refractory_until
    }

    /// Consumes the introduction for `introducee`, applying the §5.1
    /// forgetting rules: all other introductions by the same introducer are
    /// forgotten, as are all introductions of this introducee by others.
    fn consume_introduction(&mut self, introducee: Identity) -> bool {
        let Ok(at) = self.introduction_slot(introducee) else {
            return false;
        };
        let introducer = self.introductions.remove(at).introducer;
        self.introductions.retain(|i| i.introducer != introducer);
        true
    }

    /// Runs the admission filter for an invitation from `poller`.
    ///
    /// `known` is this peer's per-AU known-peers list; `now` the arrival
    /// time. Mutates refractory/rate-limit state on admission.
    pub fn filter(
        &mut self,
        poller: Identity,
        known: &KnownPeers,
        now: SimTime,
        cfg: &ProtocolConfig,
        rng: &mut SimRng,
    ) -> AdmissionVerdict {
        // 1. Introductions bypass random drops and refractory periods.
        if !cfg.ablation.no_introductions && self.consume_introduction(poller) {
            // The introduced admission still counts against the identity's
            // own rate limit going forward.
            self.stamp_admission(poller, now, cfg.refractory);
            return AdmissionVerdict::AdmittedIntroduced;
        }
        let standing = match known.standing(poller, now, cfg.grade_decay) {
            // Ablated reputation: any known identity passes as `even`.
            Standing::Known(_) if cfg.ablation.no_reputation => Standing::Known(Grade::Even),
            other => other,
        };
        self.decide(poller, standing, now, cfg, rng)
    }

    /// [`Self::filter`] for a `poller` this cell has never seen: one with
    /// no outstanding introduction here and no known-peers entry. Both of
    /// `filter`'s lookups would miss, so this skips them and decides as
    /// for an unknown identity; the verdict, the RNG draws and the state
    /// left behind are `filter`'s. The caller guarantees the identity is
    /// unseen.
    pub fn filter_unseen(
        &mut self,
        poller: Identity,
        now: SimTime,
        cfg: &ProtocolConfig,
        rng: &mut SimRng,
    ) -> AdmissionVerdict {
        self.decide(poller, Standing::Unknown, now, cfg, rng)
    }

    /// True if `id` holds an outstanding introduction here.
    pub fn is_introduced(&self, id: Identity) -> bool {
        self.introduction_slot(id).is_ok()
    }

    /// Steps 2–5 of the module docs for a `poller` with `standing` that
    /// was not introduced.
    fn decide(
        &mut self,
        poller: Identity,
        standing: Standing,
        now: SimTime,
        cfg: &ProtocolConfig,
        rng: &mut SimRng,
    ) -> AdmissionVerdict {
        let drop_p = match standing {
            Standing::Known(Grade::Even | Grade::Credit) => {
                // 5. Per-peer rate limit: one admission per refractory period.
                match self.stamp_slot(poller) {
                    Ok(at) => {
                        let last = &mut self.last_admission[at].1;
                        if now.since(*last) < cfg.refractory {
                            return AdmissionVerdict::RateLimited;
                        }
                        *last = now;
                    }
                    Err(at) => self.insert_stamp(at, poller, now, cfg.refractory),
                }
                return AdmissionVerdict::Admitted;
            }
            Standing::Unknown => cfg.drop_unknown,
            Standing::Known(Grade::Debt) => cfg.drop_debt,
        };
        // Unknown or in-debt path.
        // 2. Refractory auto-reject.
        if !cfg.ablation.no_refractory && self.in_refractory(now) {
            return AdmissionVerdict::Refractory;
        }
        // 3. Random drops.
        if rng.chance(drop_p) {
            return AdmissionVerdict::RandomDrop;
        }
        // 4. Admit and start the refractory period.
        if !cfg.ablation.no_refractory {
            self.refractory_until = Some(now + cfg.refractory);
        }
        self.stamp_admission(poller, now, cfg.refractory);
        AdmissionVerdict::Admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_sim::Duration;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    fn t(hours: u64) -> SimTime {
        SimTime::ZERO + Duration::from_hours(hours)
    }

    fn seeded_known(grade: Grade) -> KnownPeers {
        let mut kp = KnownPeers::new();
        kp.seed(Identity::loyal(1), grade, t(0));
        kp
    }

    #[test]
    fn even_peer_admitted_then_rate_limited() {
        let mut ac = AdmissionControl::new();
        let kp = seeded_known(Grade::Even);
        let mut rng = SimRng::seed_from_u64(1);
        let id = Identity::loyal(1);
        assert_eq!(
            ac.filter(id, &kp, t(1), &cfg(), &mut rng),
            AdmissionVerdict::Admitted
        );
        assert_eq!(
            ac.filter(id, &kp, t(2), &cfg(), &mut rng),
            AdmissionVerdict::RateLimited,
            "second admission within the refractory period"
        );
        // After the refractory period the peer is admissible again.
        assert_eq!(
            ac.filter(id, &kp, t(26), &cfg(), &mut rng),
            AdmissionVerdict::Admitted
        );
    }

    #[test]
    fn unknown_peer_faces_drops_then_refractory() {
        let mut ac = AdmissionControl::new();
        let kp = KnownPeers::new();
        let mut rng = SimRng::seed_from_u64(2);
        let mut admitted = 0;
        let mut drops = 0;
        // Try many distinct unknown identities at the same hour: at most
        // one gets admitted, which starts the refractory period.
        for i in 0..100 {
            match ac.filter(
                Identity(Identity::MINION_BASE + i),
                &kp,
                t(1),
                &cfg(),
                &mut rng,
            ) {
                AdmissionVerdict::Admitted | AdmissionVerdict::AdmittedIntroduced => admitted += 1,
                AdmissionVerdict::RandomDrop => drops += 1,
                AdmissionVerdict::Refractory => {}
                AdmissionVerdict::RateLimited => panic!("unknowns are not rate-limited"),
            }
        }
        assert_eq!(admitted, 1, "refractory allows exactly one admission");
        assert!(drops > 0);
        assert!(ac.in_refractory(t(2)));
        assert!(!ac.in_refractory(t(30)));
    }

    #[test]
    fn drop_rates_match_config() {
        let cfg = cfg();
        let kp = KnownPeers::new();
        let mut rng = SimRng::seed_from_u64(3);
        let mut admitted = 0u32;
        let trials = 20_000;
        for i in 0..trials {
            // Fresh admission control each time so refractory never blocks.
            let mut ac = AdmissionControl::new();
            if ac
                .filter(
                    Identity(Identity::MINION_BASE + i),
                    &kp,
                    t(0),
                    &cfg,
                    &mut rng,
                )
                .is_admitted()
            {
                admitted += 1;
            }
        }
        let rate = admitted as f64 / trials as f64;
        assert!((rate - 0.10).abs() < 0.01, "unknown admit rate {rate}");
    }

    #[test]
    fn in_debt_peers_use_the_softer_drop() {
        let cfg = cfg();
        let mut kp = KnownPeers::new();
        let id = Identity::loyal(7);
        kp.seed(id, Grade::Debt, t(0));
        let mut rng = SimRng::seed_from_u64(4);
        let mut admitted = 0u32;
        let trials = 20_000;
        for _ in 0..trials {
            let mut ac = AdmissionControl::new();
            if ac.filter(id, &kp, t(0), &cfg, &mut rng).is_admitted() {
                admitted += 1;
            }
        }
        let rate = admitted as f64 / trials as f64;
        assert!((rate - 0.20).abs() < 0.01, "in-debt admit rate {rate}");
    }

    #[test]
    fn introduction_bypasses_refractory_and_drops() {
        let mut ac = AdmissionControl::new();
        let kp = KnownPeers::new();
        let mut rng = SimRng::seed_from_u64(5);
        let c = cfg();
        // Exhaust the unknown slot to start a refractory period.
        loop {
            let out = ac.filter(Identity(Identity::MINION_BASE), &kp, t(0), &c, &mut rng);
            if out.is_admitted() {
                break;
            }
        }
        assert!(ac.in_refractory(t(1)));
        let introducee = Identity::loyal(9);
        ac.introduce(introducee, Identity::loyal(2), t(1), &c);
        assert_eq!(
            ac.filter(introducee, &kp, t(1), &c, &mut rng),
            AdmissionVerdict::AdmittedIntroduced
        );
        // The introduction is consumed.
        assert_eq!(ac.outstanding_introductions(), 0);
    }

    #[test]
    fn consuming_forgets_same_introducer_and_same_introducee() {
        let mut ac = AdmissionControl::new();
        let c = cfg();
        let alice = Identity::loyal(1);
        let bob = Identity::loyal(2);
        let carol = Identity::loyal(3);
        let dave = Identity::loyal(4);
        // Alice introduces Bob and Carol; Dave also introduces Bob... but
        // the map keys by introducee, so Dave's introduction of Bob
        // replaces Alice's. Use a distinct introducee for the "same
        // introducer" rule instead.
        ac.introduce(bob, alice, t(0), &c);
        ac.introduce(carol, alice, t(1), &c);
        ac.introduce(dave, Identity::loyal(5), t(2), &c);
        assert_eq!(ac.outstanding_introductions(), 3);
        assert!(ac.consume_introduction(bob));
        // Carol (same introducer: Alice) is forgotten; Dave survives.
        assert_eq!(ac.outstanding_introductions(), 1);
        assert!(!ac.consume_introduction(carol));
        assert!(ac.consume_introduction(dave));
    }

    #[test]
    fn introduction_cap_evicts_oldest() {
        let mut ac = AdmissionControl::new();
        let mut c = cfg();
        c.max_introductions = 2;
        ac.introduce(Identity::loyal(1), Identity::loyal(10), t(0), &c);
        ac.introduce(Identity::loyal(2), Identity::loyal(11), t(1), &c);
        ac.introduce(Identity::loyal(3), Identity::loyal(12), t(2), &c);
        assert_eq!(ac.outstanding_introductions(), 2);
        assert!(
            ac.introduction_slot(Identity::loyal(1)).is_err(),
            "oldest evicted"
        );
    }
}
