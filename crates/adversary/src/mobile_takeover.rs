//! The mobile-takeover adversary: a migrating Byzantine compromise with a
//! fixed concurrency budget, plus post-compromise recovery.
//!
//! Mobile-adversary work (Bonomi et al., *Reliable Broadcast despite
//! Mobile Byzantine Faults*) models an attacker who controls at most `B`
//! peers at a time but can *move*: a compromised peer is eventually cured
//! — restored to loyal behavior — while the attacker takes over fresh
//! victims. The cure restores loyalty, not data ("cure ≠ heal"): the
//! replica stays damaged until the ordinary audit-and-repair machinery
//! (§4.3) heals it, so over a long campaign the question is whether the
//! protocol's repair rate outruns the adversary's corruption rate.
//!
//! While compromised, a peer attacks from inside the loyal population
//! through the existing message paths (see `lockss_core::world`): it
//! votes from a pre-corruption *shadow* snapshot of its replica — hiding
//! the damage, and volunteering as a plausible repair candidate — and any
//! repair block it serves is poisoned, leaving the requester's block
//! damaged. No protocol message changes shape; the attack is pure state.
//!
//! Each migration cures the current victim set and compromises a fresh
//! random one, so the budget invariant — at most `budget` concurrent
//! compromises — holds at every instant. The migration cadence is either
//! synced to the poll interval (the default: the takeover blankets exactly
//! one audit cycle per victim) or a fixed period. An optional `horizon`
//! ends the campaign — curing every remaining victim — so recovery
//! studies can measure time-to-heal from a clean "attack over" mark.

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, Label, World};
use lockss_sim::{Duration, Engine};

const TAG_MIGRATE: u64 = 0;
const TAG_END: u64 = 1;

/// Blocks corrupted per AU at each takeover. Two per AU keeps single
/// polls from trivially healing a victim (one repair per lost poll)
/// while staying far from wholesale replica destruction.
pub const CORRUPT_BLOCKS_PER_AU: u64 = 2;

/// Budgeted migrating compromise with cure-on-migration.
pub struct MobileTakeover {
    /// Maximum concurrent compromises (clamped to the loyal population
    /// at each migration).
    pub budget: u32,
    /// Migration period; `None` syncs to the protocol's poll interval.
    pub period: Option<Duration>,
    /// Campaign end: cure every victim and stop migrating. `None` runs
    /// for the whole simulation.
    pub horizon: Option<Duration>,
    victims: Vec<usize>,
    ended: bool,
}

impl MobileTakeover {
    /// A takeover holding at most `budget` peers at a time, migrating
    /// once per poll interval.
    pub fn new(budget: u32) -> MobileTakeover {
        MobileTakeover {
            budget,
            period: None,
            horizon: None,
            victims: Vec::new(),
            ended: false,
        }
    }

    /// Migrate on a fixed period instead of the poll cadence.
    pub fn with_period(mut self, period: Duration) -> MobileTakeover {
        self.period = Some(period);
        self
    }

    /// End the campaign (cure everyone) after `horizon`.
    pub fn with_horizon(mut self, horizon: Duration) -> MobileTakeover {
        self.horizon = Some(horizon);
        self
    }

    fn period(&self, world: &World) -> Duration {
        self.period
            .unwrap_or(world.cfg.protocol.poll_interval)
            .max(Duration::SECOND)
    }

    fn cure_all(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let cured = self.victims.len() as u64;
        for p in self.victims.drain(..) {
            world.cure_peer(eng, p);
        }
        if cured > 0 {
            world.note_adversary_action(eng, Label::MobileTakeoverCure, cured);
        }
    }

    fn migrate(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.cure_all(world, eng);
        let n = world.n_loyal();
        let k = (self.budget as usize).min(n);
        self.victims = world.rng.sample_indices(n, k);
        for &victim in &self.victims {
            world.compromise_peer(eng, victim, CORRUPT_BLOCKS_PER_AU);
        }
        world.note_adversary_action(eng, Label::MobileTakeoverCompromise, k as u64);
        let period = self.period(world);
        schedule_adversary_timer(world, eng, period, TAG_MIGRATE);
    }
}

impl Adversary for MobileTakeover {
    fn name(&self) -> Label {
        Label::MobileTakeover
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        if let Some(horizon) = self.horizon {
            schedule_adversary_timer(world, eng, horizon, TAG_END);
        }
        self.migrate(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag {
            TAG_MIGRATE if !self.ended => self.migrate(world, eng),
            TAG_END if !self.ended => {
                self.ended = true;
                self.cure_all(world, eng);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_core::WorldConfig;

    fn world(seed: u64) -> (World, Engine<World>) {
        let cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            seed,
            ..WorldConfig::default()
        };
        (World::new(cfg), Engine::new())
    }

    #[test]
    fn budget_bounds_concurrency_across_migrations() {
        let (mut world, mut eng) = world(11);
        let mut adv = MobileTakeover::new(4).with_period(Duration::DAY * 20);
        adv.begin(&mut world, &mut eng);
        assert_eq!(world.peers.compromised_count(), 4);
        for _ in 0..5 {
            adv.migrate(&mut world, &mut eng);
            assert_eq!(world.peers.compromised_count(), 4);
        }
    }

    #[test]
    fn horizon_cures_everyone_and_stops() {
        let (mut world, mut eng) = world(12);
        let mut adv = MobileTakeover::new(3)
            .with_period(Duration::DAY * 10)
            .with_horizon(Duration::DAY * 15);
        adv.begin(&mut world, &mut eng);
        assert_eq!(world.peers.compromised_count(), 3);
        adv.on_timer(&mut world, &mut eng, TAG_END);
        assert_eq!(world.peers.compromised_count(), 0);
        // Migrations after the end are ignored.
        adv.on_timer(&mut world, &mut eng, TAG_MIGRATE);
        assert_eq!(world.peers.compromised_count(), 0);
        // The damage from the campaign outlives the cure.
        assert!(world.peers.total_damaged() > 0);
    }

    #[test]
    fn budget_clamps_to_population() {
        let (mut world, mut eng) = world(13);
        let mut adv = MobileTakeover::new(500);
        adv.begin(&mut world, &mut eng);
        assert_eq!(world.peers.compromised_count(), world.n_loyal());
    }
}
