//! The sybil admission ramp: a slowly escalating garbage-invitation
//! campaign from ever-fresh identities.
//!
//! The §7.3 admission flood hits its whole victim set at once, which makes
//! it easy to notice. This variant ramps instead: it starts against a
//! small fraction of the population and widens the victim set by `step`
//! every `step_interval` until everyone is covered, then sustains the
//! flood for the rest of the run. Every invitation uses a brand-new sybil
//! identity (unconstrained identities, §3.1), so reputation can never
//! attach to the attacker; the defense being probed is pure admission
//! control — random drops of unknowns plus the refractory period — whose
//! per-victim cost ceiling is independent of how many identities the
//! adversary can mint.
//!
//! Like the flood, each burst against a victim/AU sends garbage
//! invitations until one is admitted (free for the victim to drop, cheap
//! to detect once admitted) and then returns exactly at refractory expiry
//! with insider timing.

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, Identity, World};
use lockss_effort::Purpose;
use lockss_sim::{Duration, Engine};

const KIND_STEP: u64 = 0;
const KIND_BURST: u64 = 1;

fn burst_tag(victim: usize, au: u32) -> u64 {
    KIND_BURST | ((victim as u64) << 4) | ((au as u64) << 28)
}

fn decode_burst(tag: u64) -> (usize, u32) {
    (((tag >> 4) & 0xFF_FFFF) as usize, (tag >> 28) as u32)
}

/// The escalating sybil admission attack.
pub struct SybilRamp {
    /// Fraction of the population added to the victim set per step.
    pub step: f64,
    /// Time between escalation steps.
    pub step_interval: Duration,
    /// Victim order (a fixed random permutation; the active set is a
    /// growing prefix).
    order: Vec<usize>,
    /// How many of `order` are currently under attack.
    active: usize,
    next_identity: u64,
    /// Garbage invitations sent (diagnostics).
    pub invitations_sent: u64,
    /// Bursts that ended in an admission (diagnostics).
    pub admissions: u64,
}

impl SybilRamp {
    /// A ramp growing by `step` of the population every `step_days` days.
    pub fn new(step: f64, step_days: u64) -> SybilRamp {
        SybilRamp {
            step: step.clamp(0.0, 1.0),
            step_interval: Duration::from_days(step_days),
            order: Vec::new(),
            active: 0,
            next_identity: Identity::MINION_BASE + (1 << 40),
            invitations_sent: 0,
            admissions: 0,
        }
    }

    /// The current victim-set coverage fraction.
    pub fn coverage(&self) -> f64 {
        if self.order.is_empty() {
            return 0.0;
        }
        self.active as f64 / self.order.len() as f64
    }

    fn fresh_identity(&mut self) -> Identity {
        let id = Identity(self.next_identity);
        self.next_identity += 1;
        id
    }

    /// Widens the victim set by one step and opens bursts against the
    /// newly covered victims.
    fn escalate(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = self.order.len();
        let add = ((n as f64) * self.step).round().max(1.0) as usize;
        let new_active = (self.active + add).min(n);
        for i in self.active..new_active {
            let victim = self.order[i];
            for au in 0..world.cfg.n_aus as u32 {
                let jitter = world
                    .rng
                    .duration_between(Duration::SECOND, world.cfg.protocol.refractory);
                schedule_adversary_timer(world, eng, jitter, burst_tag(victim, au));
            }
        }
        self.active = new_active;
        world.note_adversary_action(eng, "sybil-ramp/escalate", new_active as u64);
        if self.active < n {
            schedule_adversary_timer(world, eng, self.step_interval, KIND_STEP);
        }
    }

    /// One burst against (victim, au): sybil invitations until admitted.
    fn burst(&mut self, world: &mut World, eng: &mut Engine<World>, victim: usize, au: u32) {
        let now = eng.now();
        let cfg = world.cfg.protocol.clone();

        // Insider timing: if the victim is refractory, return at expiry.
        if let Some(until) = world
            .peers
            .au(victim, au as usize)
            .admission
            .refractory_until()
        {
            if now < until {
                schedule_adversary_timer(
                    world,
                    eng,
                    until.since(now) + Duration::SECOND,
                    burst_tag(victim, au),
                );
                return;
            }
        }

        let no_refractory = cfg.ablation.no_refractory;
        let consider = world.cost().consider_cost();
        let detect = world.balanced_effort(world.cost().bogus_intro_detect());
        let sent_before = self.invitations_sent;
        for _ in 0..1_000 {
            self.invitations_sent += 1;
            let id = self.fresh_identity();
            let verdict = {
                let (au_state, rng) = world.peers.au_and_rng_mut(victim, au as usize);
                au_state
                    .admission
                    .filter(id, &au_state.known, now, &cfg, rng)
            };
            if verdict.is_admitted() {
                self.admissions += 1;
                world.charge_loyal(victim, Purpose::Consider, consider);
                world.charge_loyal(victim, Purpose::VerifyIntro, detect);
                if !no_refractory {
                    break;
                }
            }
        }
        // Sybil bursts also bypass the message layer; tag them so the
        // trace shows which victim waves the escalation produced.
        world.note_adversary_action(eng, "sybil-ramp/burst", self.invitations_sent - sent_before);
        schedule_adversary_timer(
            world,
            eng,
            cfg.refractory + Duration::SECOND,
            burst_tag(victim, au),
        );
    }
}

impl Adversary for SybilRamp {
    fn name(&self) -> &'static str {
        "sybil-ramp"
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let mut order: Vec<usize> = (0..world.n_loyal()).collect();
        world.rng.shuffle(&mut order);
        self.order = order;
        self.escalate(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag & 0xF {
            KIND_STEP => self.escalate(world, eng),
            KIND_BURST => {
                let (victim, au) = decode_burst(tag);
                if victim < world.n_loyal() && (au as usize) < world.cfg.n_aus {
                    self.burst(world, eng, victim, au);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for (v, au) in [(0usize, 0u32), (77, 599), (54321, 3)] {
            let tag = burst_tag(v, au);
            assert_eq!(tag & 0xF, KIND_BURST);
            assert_eq!(decode_burst(tag), (v, au));
        }
    }

    #[test]
    fn identities_are_fresh_minions() {
        let mut r = SybilRamp::new(0.25, 30);
        let a = r.fresh_identity();
        let b = r.fresh_identity();
        assert_ne!(a, b);
        assert!(a.is_minion() && b.is_minion());
    }

    #[test]
    fn coverage_starts_empty() {
        let r = SybilRamp::new(0.25, 30);
        assert_eq!(r.coverage(), 0.0);
    }
}
