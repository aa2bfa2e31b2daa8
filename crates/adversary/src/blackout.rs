//! Blackouts: a fresh random `coverage` fraction of the loyal population
//! goes dark (no messages in or out, like an operator taking the replica
//! offline), then comes back, cycle after cycle. The two strategies differ
//! only in their [`Clock`]. Both are effortless (§3.1), so the cost-ratio
//! metric is undefined for them.
//!
//! **Pipe stoppage** (§7.2): "Each attack consists of a period of pipe
//! stoppage, which lasts between 1 and 180 days, followed by a 30-day
//! recuperation period during which all communication is restored; this
//! pattern is repeated for the entire experiment, affecting a different
//! random subset of the population in each iteration."
//!
//! **Churn storm**: the §9 "more dynamic environment" sharpened into an
//! attack, with the disruption moving through the population as in
//! mobile-adversary work (Bonomi et al., *Reliable Broadcast despite Mobile
//! Byzantine Faults*). Once per inter-poll interval a fresh subset departs
//! — right when the interval's solicitation windows need them as voters —
//! and re-arrives after `duty` of the interval. Solicitations to the
//! departed time out as refusals and their own polls starve; with no
//! recuperation, over a long storm *every* peer repeatedly loses poll
//! opportunities. The defense it probes is redundancy in time (§5.2):
//! polls need only a quorum of the reference list, whenever it is
//! reachable.

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, Label, World};
use lockss_net::NodeId;
use lockss_sim::{Duration, Engine};

const TAG_DARKEN: u64 = 0;
const TAG_RESTORE: u64 = 1;

/// How long each cycle stays dark and how long it is restored.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Clock {
    /// §7.2: dark for `attack_len`, then restored for `recuperation`.
    Stoppage {
        attack_len: Duration,
        recuperation: Duration,
    },
    /// Dark for `duty` (0.0–1.0) of every poll interval, restored for the
    /// rest. The default duty mirrors the solicitation-window fraction, so
    /// departures blanket exactly the span in which votes are solicited.
    Storm { duty: f64 },
}

/// A repeated blackout of a fresh random subset of the loyal population.
pub struct Blackout {
    /// Fraction of the loyal population darkened each cycle (0.0–1.0).
    pub coverage: f64,
    /// When the subset goes dark and when it is restored.
    pub clock: Clock,
    dark: Vec<NodeId>,
}

impl Blackout {
    /// The §7.2 pipe stoppage: `attack_days` dark, then the paper's 30-day
    /// recuperation.
    pub fn pipe_stoppage(coverage: f64, attack_days: u64) -> Blackout {
        let clock = Clock::Stoppage {
            attack_len: Duration::from_days(attack_days),
            recuperation: Duration::from_days(30),
        };
        Blackout::new(coverage, clock)
    }

    /// A churn storm taking `coverage` of the population offline for
    /// `duty` of every poll interval.
    pub fn churn_storm(coverage: f64, duty: f64) -> Blackout {
        let duty = duty.clamp(0.0, 1.0);
        Blackout::new(coverage, Clock::Storm { duty })
    }

    fn new(coverage: f64, clock: Clock) -> Blackout {
        Blackout {
            coverage: coverage.clamp(0.0, 1.0),
            clock,
            dark: Vec::new(),
        }
    }

    /// Peers darkened per cycle.
    pub(crate) fn per_cycle(&self, n_loyal: usize) -> usize {
        ((n_loyal as f64) * self.coverage).round() as usize
    }

    /// The strategy's name, then its darken and restore action labels.
    fn labels(&self) -> [Label; 3] {
        match self.clock {
            Clock::Stoppage { .. } => [
                Label::PipeStoppage,
                Label::PipeStoppageStop,
                Label::PipeStoppageRestore,
            ],
            Clock::Storm { .. } => [
                Label::ChurnStorm,
                Label::ChurnStormDepart,
                Label::ChurnStormRejoin,
            ],
        }
    }

    /// How long a cycle stays dark, then how long it is restored.
    fn spans(&self, world: &World) -> (Duration, Duration) {
        match self.clock {
            Clock::Stoppage {
                attack_len,
                recuperation,
            } => (attack_len, recuperation),
            Clock::Storm { duty } => {
                let interval = world.cfg.protocol.poll_interval;
                let light = interval.mul_f64(1.0 - duty).max(Duration::SECOND);
                (interval.mul_f64(duty), light)
            }
        }
    }

    fn darken(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = world.n_loyal();
        let chosen = world.rng.sample_indices(n, self.per_cycle(n));
        self.dark = chosen.iter().map(|&i| world.peers.node(i)).collect();
        for node in &self.dark {
            world.net.set_stopped(*node, true);
        }
        world.note_adversary_action(eng, self.labels()[1], self.dark.len() as u64);
        schedule_adversary_timer(world, eng, self.spans(world).0, TAG_RESTORE);
    }

    fn restore(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let restored = self.dark.len() as u64;
        for node in self.dark.drain(..) {
            world.net.set_stopped(node, false);
        }
        world.note_adversary_action(eng, self.labels()[2], restored);
        schedule_adversary_timer(world, eng, self.spans(world).1, TAG_DARKEN);
    }
}

impl Adversary for Blackout {
    fn name(&self) -> Label {
        self.labels()[0]
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.darken(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag {
            TAG_DARKEN => self.darken(world, eng),
            TAG_RESTORE => self.restore(world, eng),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_picks_name_and_labels() {
        let a = Blackout::pipe_stoppage(0.5, 10);
        assert_eq!(a.name().label(), "pipe-stoppage");
        assert_eq!(
            a.labels().map(Label::label)[1..],
            ["pipe-stoppage/stop", "pipe-stoppage/restore"]
        );
        let s = Blackout::churn_storm(0.5, 0.7);
        assert_eq!(s.name().label(), "churn-storm");
        assert_eq!(
            s.labels().map(Label::label)[1..],
            ["churn-storm/depart", "churn-storm/rejoin"]
        );
    }
}
