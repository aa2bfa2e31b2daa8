//! Composition of attack strategies: concurrent and phased campaigns.
//!
//! The paper evaluates each attrition attack in isolation; real
//! adversaries compose them — a network-level blackout to stall audits,
//! then an admission flood timed to land exactly when the victims come
//! back and try to recover (the mobile-adversary pattern of Bonomi et
//! al.). [`Compose`] runs any number of child strategies against one
//! world, each with its own start offset: offset zero children run
//! concurrently from the first instant, later offsets phase in over the
//! campaign.
//!
//! Mechanically, every child keeps its own strategy-private timer-tag
//! encoding; the composite gives child `i` the adversary-timer *channel*
//! `i + 1` (channel 0 is the composite's own phase starter) and routes
//! each firing timer by the channel the world restamps on dispatch — see
//! [`lockss_core::adversary::schedule_adversary_timer`]. Messages from
//! loyal peers are broadcast to every started child: poll ids are
//! globally unique, so exactly the child that opened the bogus poll
//! reacts. When a child starts, the composite records a phase mark in the
//! run metrics, so per-phase summaries fall out of every composite run.

use lockss_core::{Adversary, Label, Message, World};
use lockss_net::NodeId;
use lockss_sim::{Duration, Engine};

struct Child {
    start: Duration,
    adversary: Box<dyn Adversary>,
    started: bool,
}

/// A composite adversary: child strategies with per-child start offsets.
/// `Compose::default()` is the empty composition; add children with
/// [`Compose::with`].
#[derive(Default)]
pub struct Compose {
    children: Vec<Child>,
}

/// The composite's own timers (phase starts) run on this channel; child
/// `i` runs on channel `CHANNEL_SELF + 1 + i`.
const CHANNEL_SELF: u64 = 0;

impl Compose {
    /// Adds a child strategy starting `start` after the beginning of the
    /// run (`Duration::ZERO` to run from the first instant).
    pub fn with(mut self, start: Duration, adversary: Box<dyn Adversary>) -> Compose {
        self.children.push(Child {
            start,
            adversary,
            started: false,
        });
        self
    }

    fn start_child(&mut self, world: &mut World, eng: &mut Engine<World>, index: usize) {
        let child = &mut self.children[index];
        if child.started {
            return;
        }
        child.started = true;
        world.mark_phase(child.adversary.name(), eng);
        world.set_adversary_channel(CHANNEL_SELF + 1 + index as u64);
        child.adversary.begin(world, eng);
    }
}

impl Adversary for Compose {
    fn name(&self) -> Label {
        Label::Composite
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        for i in 0..self.children.len() {
            if self.children[i].start.is_zero() {
                self.start_child(world, eng, i);
            } else {
                world.set_adversary_channel(CHANNEL_SELF);
                lockss_core::adversary::schedule_adversary_timer(
                    world,
                    eng,
                    self.children[i].start,
                    i as u64,
                );
            }
        }
    }

    fn on_message(
        &mut self,
        world: &mut World,
        eng: &mut Engine<World>,
        minion: NodeId,
        from: NodeId,
        msg: Message,
    ) {
        // Broadcast: children identify their own traffic by poll id. The
        // channel is restamped per child so any timers the handler
        // schedules route back to that child.
        for i in 0..self.children.len() {
            if !self.children[i].started {
                continue;
            }
            world.set_adversary_channel(CHANNEL_SELF + 1 + i as u64);
            self.children[i]
                .adversary
                .on_message(world, eng, minion, from, msg.clone());
        }
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        let channel = world.adversary_channel();
        if channel == CHANNEL_SELF {
            let index = tag as usize;
            if index < self.children.len() {
                self.start_child(world, eng, index);
            }
            return;
        }
        let index = (channel - CHANNEL_SELF - 1) as usize;
        if let Some(child) = self.children.get_mut(index) {
            if child.started {
                child.adversary.on_timer(world, eng, tag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_core::NullAdversary;

    #[test]
    fn composition_builds() {
        let c = Compose::default()
            .with(Duration::ZERO, Box::new(NullAdversary))
            .with(Duration::from_days(30), Box::new(NullAdversary));
        assert_eq!(c.children.len(), 2);
        assert_eq!(c.name(), Label::Composite);
    }
}
