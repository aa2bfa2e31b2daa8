//! The churn-storm adversary: mass departure/re-arrival synchronized
//! with the poll cadence.
//!
//! The paper's §9 asks how the attrition defenses fare "in a more dynamic
//! environment"; mobile-adversary work (Bonomi et al., *Reliable Broadcast
//! despite Mobile Byzantine Faults*) sharpens the question by letting the
//! disruption *move* through the population over time. This strategy
//! models the worst-case correlated churn pattern for an audit protocol
//! with a fixed poll rate: once per inter-poll interval a fresh random
//! `coverage` fraction of the population departs simultaneously — right
//! when the interval's solicitation windows need them as voters — and
//! re-arrives after `duty` of the interval has elapsed.
//!
//! Departure is modelled as the peer going dark (no messages in or out,
//! like an operator taking the replica offline), so solicitations to the
//! departed time out as refusals and the departed peers' own polls starve.
//! Unlike [`crate::PipeStoppage`] there is no recuperation period and the
//! victim set migrates every cycle, so over a long storm *every* peer
//! repeatedly loses poll opportunities. The attack is effortless; the
//! defense it probes is redundancy in time (§5.2): polls need only a
//! quorum of the reference list, whenever it is reachable.

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, World};
use lockss_net::NodeId;
use lockss_sim::{Duration, Engine};

const TAG_DEPART: u64 = 0;
const TAG_RETURN: u64 = 1;

/// Poll-synchronized mass departure/re-arrival churn.
pub struct ChurnStorm {
    /// Fraction of the loyal population departing each cycle (0.0–1.0).
    pub coverage: f64,
    /// Fraction of each poll interval spent departed (0.0–1.0); the
    /// default mirrors the protocol's solicitation-window fraction so
    /// departures blanket exactly the span in which votes are solicited.
    pub duty: f64,
    departed: Vec<NodeId>,
}

impl ChurnStorm {
    /// A storm taking `coverage` of the population offline for `duty` of
    /// every poll interval.
    pub fn new(coverage: f64, duty: f64) -> ChurnStorm {
        ChurnStorm {
            coverage: coverage.clamp(0.0, 1.0),
            duty: duty.clamp(0.0, 1.0),
            departed: Vec::new(),
        }
    }

    /// Peers departing per cycle.
    pub fn departures_per_cycle(&self, n_loyal: usize) -> usize {
        ((n_loyal as f64) * self.coverage).round() as usize
    }

    fn depart(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = world.n_loyal();
        let k = self.departures_per_cycle(n);
        let chosen = world.rng.sample_indices(n, k);
        self.departed = chosen.iter().map(|&i| world.peers.node(i)).collect();
        for node in &self.departed {
            world.net.set_stopped(*node, true);
        }
        world.note_adversary_action(eng, "churn-storm/depart", self.departed.len() as u64);
        let interval = world.cfg.protocol.poll_interval;
        schedule_adversary_timer(world, eng, interval.mul_f64(self.duty), TAG_RETURN);
    }

    fn rejoin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let returned = self.departed.len() as u64;
        for node in self.departed.drain(..) {
            world.net.set_stopped(node, false);
        }
        world.note_adversary_action(eng, "churn-storm/rejoin", returned);
        let interval = world.cfg.protocol.poll_interval;
        schedule_adversary_timer(
            world,
            eng,
            interval.mul_f64(1.0 - self.duty).max(Duration::SECOND),
            TAG_DEPART,
        );
    }
}

impl Adversary for ChurnStorm {
    fn name(&self) -> &'static str {
        "churn-storm"
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.depart(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag {
            TAG_DEPART => self.depart(world, eng),
            TAG_RETURN => self.rejoin(world, eng),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_are_clamped() {
        let s = ChurnStorm::new(3.0, -1.0);
        assert!((s.coverage - 1.0).abs() < 1e-12);
        assert_eq!(s.duty, 0.0);
    }

    #[test]
    fn departure_count_rounds() {
        let s = ChurnStorm::new(0.5, 0.7);
        assert_eq!(s.departures_per_cycle(100), 50);
        assert_eq!(s.departures_per_cycle(0), 0);
    }
}
