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
use lockss_core::{Adversary, Identity, Label, World};
use lockss_sim::{Duration, Engine};

use crate::flood::{burst_target, garbage_burst, open_bursts};

const KIND_CYCLE_START: u64 = 0;
const KIND_CYCLE_END: u64 = 1;
const KIND_BURST: u64 = 2;

/// The §7.3 admission-control flood.
pub struct AdmissionFlood {
    /// Fraction of the loyal population attacked per cycle.
    pub coverage: f64,
    /// Attack window length per cycle.
    pub attack_len: Duration,
    /// Recuperation between cycles (paper: 30 days).
    pub recuperation: Duration,
    /// This cycle's victims; empty between cycles.
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
            victim_flags: Vec::new(),
            // Clear of the brute force's in-debt range from MINION_BASE up,
            // so a composed flood's addresses stay unknown (§7.3).
            next_identity: Identity::MINION_BASE + (1 << 36),
        }
    }

    fn start_cycle(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = world.n_loyal();
        self.victim_flags = vec![false; n];
        let k = ((n as f64) * self.coverage).round() as usize;
        for v in world.rng.sample_indices(n, k) {
            self.victim_flags[v] = true;
            open_bursts(world, eng, KIND_BURST, v);
        }
        world.note_adversary_action(eng, Label::AdmissionFloodCycleStart, k as u64);
        schedule_adversary_timer(world, eng, self.attack_len, KIND_CYCLE_END);
    }

    fn end_cycle(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let cleared = self.victim_flags.iter().filter(|&&f| f).count() as u64;
        self.victim_flags.clear();
        world.note_adversary_action(eng, Label::AdmissionFloodCycleEnd, cleared);
        schedule_adversary_timer(world, eng, self.recuperation, KIND_CYCLE_START);
    }
}

impl Adversary for AdmissionFlood {
    fn name(&self) -> Label {
        Label::AdmissionFlood
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.start_cycle(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag & 0xF {
            KIND_CYCLE_START => self.start_cycle(world, eng),
            KIND_CYCLE_END => self.end_cycle(world, eng),
            KIND_BURST => {
                let victim = |&(v, _): &(usize, u32)| self.victim_flags.get(v) == Some(&true);
                if let Some(target) = burst_target(world, tag).filter(victim) {
                    garbage_burst(
                        world,
                        eng,
                        KIND_BURST,
                        target,
                        &mut self.next_identity,
                        Label::AdmissionFloodBurst,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::burst_tag;
    use crate::{BruteForce, Defection};
    use lockss_core::reputation::Standing;
    use lockss_core::WorldConfig;

    fn world() -> (World, Engine<World>) {
        let cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            seed: 3,
            ..WorldConfig::default()
        };
        (World::new(cfg), Engine::new())
    }

    #[test]
    fn tags_roundtrip() {
        let (world, _) = world();
        for (v, au) in [(0usize, 0u32), (29, 1), (12, 1)] {
            let tag = burst_tag(KIND_BURST, v, au);
            assert_eq!(tag & 0xF, KIND_BURST);
            assert_eq!(burst_target(&world, tag), Some((v, au)));
        }
    }

    #[test]
    fn identities_are_fresh_minions() {
        let (mut world, mut eng) = world();
        let mut flood = AdmissionFlood::new(1.0, 10);
        flood.begin(&mut world, &mut eng);
        let first = flood.next_identity;
        flood.on_timer(&mut world, &mut eng, burst_tag(KIND_BURST, 0, 0));
        assert!(flood.next_identity > first);
        assert!(Identity(first).is_minion());
    }

    #[test]
    fn bursts_stop_between_cycles() {
        let (mut world, mut eng) = world();
        let mut flood = AdmissionFlood::new(1.0, 10);
        flood.begin(&mut world, &mut eng);
        flood.end_cycle(&mut world, &mut eng);
        let before = flood.next_identity;
        flood.on_timer(&mut world, &mut eng, burst_tag(KIND_BURST, 0, 0));
        assert_eq!(flood.next_identity, before, "no invitation between cycles");
    }

    /// §7.3: the flood's poller addresses are unknown to the victims, also
    /// in a campaign that composes it with the brute force, which seeds its
    /// own identities in debt at every victim.
    #[test]
    fn flood_identities_are_unknown_where_brute_force_seeds_debt() {
        let (mut world, mut eng) = world();
        BruteForce::new(Defection::Intro).begin(&mut world, &mut eng);
        let flood = AdmissionFlood::new(1.0, 10);
        let decay = world.cfg.protocol.grade_decay;
        for victim in 0..world.n_loyal() {
            for au in 0..world.cfg.n_aus {
                let known = &world.peers.au(victim, au).known;
                for k in 0..1_000 {
                    let id = Identity(flood.next_identity + k);
                    let standing = known.standing(id, eng.now(), decay);
                    assert_eq!(standing, Standing::Unknown, "{id} at ({victim}, {au})");
                }
            }
        }
    }
}
