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
use lockss_core::{Adversary, Identity, Label, World};
use lockss_sim::{Duration, Engine};

use crate::flood::{burst_target, garbage_burst, open_bursts};

const KIND_STEP: u64 = 0;
const KIND_BURST: u64 = 1;

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
        }
    }

    /// Widens the victim set by one step and opens bursts against the
    /// newly covered victims.
    fn escalate(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = self.order.len();
        let add = ((n as f64) * self.step).round().max(1.0) as usize;
        let new_active = (self.active + add).min(n);
        for &victim in &self.order[self.active..new_active] {
            open_bursts(world, eng, KIND_BURST, victim);
        }
        self.active = new_active;
        world.note_adversary_action(eng, Label::SybilRampEscalate, new_active as u64);
        if self.active < n {
            schedule_adversary_timer(world, eng, self.step_interval, KIND_STEP);
        }
    }
}

impl Adversary for SybilRamp {
    fn name(&self) -> Label {
        Label::SybilRamp
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
                if let Some(target) = burst_target(world, tag) {
                    // Sybil bursts also bypass the message layer; the label
                    // shows which victim waves the escalation produced.
                    garbage_burst(
                        world,
                        eng,
                        KIND_BURST,
                        target,
                        &mut self.next_identity,
                        Label::SybilRampBurst,
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
    use lockss_core::WorldConfig;

    fn world() -> (World, Engine<World>) {
        let cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            seed: 4,
            ..WorldConfig::default()
        };
        (World::new(cfg), Engine::new())
    }

    #[test]
    fn tags_roundtrip() {
        let (world, _) = world();
        for (v, au) in [(0usize, 0u32), (29, 1), (17, 0)] {
            let tag = burst_tag(KIND_BURST, v, au);
            assert_eq!(tag & 0xF, KIND_BURST);
            assert_eq!(burst_target(&world, tag), Some((v, au)));
        }
    }

    #[test]
    fn identities_are_fresh_minions() {
        let (mut world, mut eng) = world();
        let mut ramp = SybilRamp::new(0.25, 30);
        ramp.begin(&mut world, &mut eng);
        let first = ramp.next_identity;
        let victim = ramp.order[0];
        ramp.on_timer(&mut world, &mut eng, burst_tag(KIND_BURST, victim, 1));
        assert!(ramp.next_identity > first);
        assert!(Identity(first).is_minion());
    }
}
