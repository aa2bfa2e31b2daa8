//! The admission-control adversary (§7.3).
//!
//! "This adversary sends cheap garbage invitations to varying fractions of
//! the peer population for varying periods of time separated by a fixed
//! recuperation period of 30 days. The adversary sends his invitations
//! using poller addresses that are unknown to the victims. These, when
//! eventually admitted, cause those victims to enter their refractory
//! periods and drop all subsequent invitations from unknown and in-debt
//! peers."
//!
//! The flood itself is modelled as an admission *burst*: the adversary
//! sends garbage invitations back-to-back (each is free for the victim to
//! drop) until one is admitted; the victim pays consideration plus cheap
//! bogus-proof detection, and its refractory period re-arms. With insider
//! information (§3.1) the adversary times the next burst exactly at
//! refractory expiry, which is the strongest version of this attack.

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, Identity, World};
use lockss_effort::Purpose;
use lockss_sim::{Duration, Engine};

const KIND_CYCLE_START: u64 = 0;
const KIND_CYCLE_END: u64 = 1;
const KIND_BURST: u64 = 2;

fn burst_tag(victim: usize, au: u32) -> u64 {
    KIND_BURST | ((victim as u64) << 4) | ((au as u64) << 28)
}

fn decode_burst(tag: u64) -> (usize, u32) {
    (((tag >> 4) & 0xFF_FFFF) as usize, (tag >> 28) as u32)
}

/// The §7.3 admission-control flood.
pub struct AdmissionFlood {
    /// Fraction of the loyal population attacked per cycle.
    pub coverage: f64,
    /// Attack window length per cycle.
    pub attack_len: Duration,
    /// Recuperation between cycles (paper: 30 days).
    pub recuperation: Duration,
    active: bool,
    victim_flags: Vec<bool>,
    next_identity: u64,
}

impl AdmissionFlood {
    /// Creates the attack with the paper's 30-day recuperation.
    pub fn new(coverage: f64, attack_days: u64) -> AdmissionFlood {
        AdmissionFlood {
            coverage: coverage.clamp(0.0, 1.0),
            attack_len: Duration::from_days(attack_days),
            recuperation: Duration::from_days(30),
            active: false,
            victim_flags: Vec::new(),
            next_identity: Identity::MINION_BASE,
        }
    }

    fn fresh_identity(&mut self) -> Identity {
        let id = Identity(self.next_identity);
        self.next_identity += 1;
        id
    }

    fn start_cycle(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = world.n_loyal();
        self.active = true;
        self.victim_flags = vec![false; n];
        let k = ((n as f64) * self.coverage).round() as usize;
        for v in world.rng.sample_indices(n, k) {
            self.victim_flags[v] = true;
            for au in 0..world.cfg.n_aus as u32 {
                // Stagger the opening bursts inside the first refractory
                // period so victims are not hit in lockstep.
                let jitter = world
                    .rng
                    .duration_between(Duration::SECOND, world.cfg.protocol.refractory);
                schedule_adversary_timer(world, eng, jitter, burst_tag(v, au));
            }
        }
        world.note_adversary_action(eng, "admission-flood/cycle-start", k as u64);
        schedule_adversary_timer(world, eng, self.attack_len, KIND_CYCLE_END);
    }

    fn end_cycle(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let cleared = self.victim_flags.iter().filter(|&&f| f).count() as u64;
        self.active = false;
        self.victim_flags.clear();
        world.note_adversary_action(eng, "admission-flood/cycle-end", cleared);
        schedule_adversary_timer(world, eng, self.recuperation, KIND_CYCLE_START);
    }

    /// One flood burst against (victim, au): garbage invitations until one
    /// is admitted.
    fn burst(&mut self, world: &mut World, eng: &mut Engine<World>, victim: usize, au: u32) {
        if !self.active || !self.victim_flags.get(victim).copied().unwrap_or(false) {
            return;
        }
        let now = eng.now();
        let cfg = world.cfg.protocol.clone();

        // If the victim is still refractory (e.g. a loyal unknown was
        // admitted just before us), come back right at expiry.
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

        // Garbage invitations are free to make and free for the victim to
        // drop; one eventually gets admitted (p = 1 - drop_unknown each).
        // With the refractory period ablated, nothing stops the flood at
        // one admission: every invitation that survives the random drop
        // costs a consideration — the unbounded cost the defense exists to
        // bound. The burst is capped at one wave per scheduling cycle.
        let no_refractory = cfg.ablation.no_refractory;
        let consider = world.costs().consider;
        let detect = world.balanced_effort(world.costs().bogus_intro_detect);
        let mut sent = 0u64;
        for _ in 0..1_000 {
            sent += 1;
            let id = self.fresh_identity();
            let verdict = {
                let (au_state, rng) = world.peers.au_and_rng_mut(victim, au as usize);
                au_state
                    .admission
                    .filter(id, &au_state.known, now, &cfg, rng)
            };
            if verdict.is_admitted() {
                // The victim considers the admitted invitation and detects
                // the garbage proof (cheaply, §6.3).
                world.charge_loyal(victim, Purpose::Consider, consider);
                world.charge_loyal(victim, Purpose::VerifyIntro, detect);
                if !no_refractory {
                    break;
                }
            }
        }
        // The burst short-circuits the message layer (the invitations are
        // modelled directly against the admission filter), so this
        // provenance tag is the trace's only witness of it.
        world.note_adversary_action(eng, "admission-flood/burst", sent);
        // Next burst at refractory expiry.
        schedule_adversary_timer(
            world,
            eng,
            cfg.refractory + Duration::SECOND,
            burst_tag(victim, au),
        );
    }
}

impl Adversary for AdmissionFlood {
    fn name(&self) -> &'static str {
        "admission-flood"
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.start_cycle(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag & 0xF {
            KIND_CYCLE_START => self.start_cycle(world, eng),
            KIND_CYCLE_END => self.end_cycle(world, eng),
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
        for (v, au) in [(0usize, 0u32), (99, 599), (12345, 42)] {
            let tag = burst_tag(v, au);
            assert_eq!(tag & 0xF, KIND_BURST);
            assert_eq!(decode_burst(tag), (v, au));
        }
    }

    #[test]
    fn identities_are_fresh_minions() {
        let mut a = AdmissionFlood::new(1.0, 10);
        let x = a.fresh_identity();
        let y = a.fresh_identity();
        assert_ne!(x, y);
        assert!(x.is_minion());
        assert!(y.is_minion());
    }
}
