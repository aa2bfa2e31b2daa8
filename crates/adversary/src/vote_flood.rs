//! The vote-flood adversary (§5.1).
//!
//! "A vote flood adversary would seek to supply as many bogus votes as
//! possible hoping to exhaust loyal pollers' resources in useless but
//! expensive proofs of invalidity. ... The vote flood adversary is
//! hamstrung by the fact that votes can be supplied only in response to an
//! invitation by the putative victim poller, and pollers solicit votes at
//! a fixed rate. Unsolicited votes are ignored."
//!
//! This strategy floods every loyal peer with unsolicited bogus votes at a
//! configurable rate. With insider information the adversary even uses
//! *live poll ids* (the worst case for the victim); the defense is that a
//! vote from an identity the poller never invited is discarded before any
//! hashing happens, so the flood costs the victims nothing but bandwidth.

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, Identity, Label, Message, World};
use lockss_net::NodeId;
use lockss_sim::{Duration, Engine};
use lockss_storage::AuId;

const TAG_WAVE: u64 = 0;

/// Unsolicited bogus-vote flood.
pub struct VoteFlood {
    /// Bogus votes per victim per wave.
    pub votes_per_wave: u32,
    /// Time between waves.
    pub wave_interval: Duration,
    minions: Vec<NodeId>,
    next_identity: u64,
}

impl VoteFlood {
    /// A flood of `votes_per_wave` bogus votes per victim every
    /// `wave_interval`.
    pub fn new(votes_per_wave: u32, wave_interval: Duration) -> VoteFlood {
        VoteFlood {
            votes_per_wave,
            wave_interval,
            minions: Vec::new(),
            next_identity: Identity::MINION_BASE + (1 << 30),
        }
    }

    fn wave(&mut self, world: &mut World, eng: &mut Engine<World>) {
        let n = world.n_loyal();
        let n_aus = world.cfg.n_aus as u32;
        world.note_adversary_action(
            eng,
            Label::VoteFloodWave,
            n as u64 * u64::from(self.votes_per_wave),
        );
        for victim in 0..n {
            // Insider information: target the victim's *live* polls where
            // they exist, otherwise invent ids — either way the votes are
            // unsolicited and must be ignored for free.
            for k in 0..self.votes_per_wave {
                let au = AuId((victim as u32 + k) % n_aus);
                let poll = world
                    .peers
                    .au(victim, au.index())
                    .poll
                    .as_ref()
                    .map(|p| p.id)
                    .unwrap_or(lockss_core::PollId(u64::MAX - k as u64));
                let identity = Identity(self.next_identity);
                self.next_identity += 1;
                let minion = self.minions[(victim + k as usize) % self.minions.len()];
                let to = world.peers.node(victim);
                world.send_message(
                    eng,
                    minion,
                    to,
                    Message::Vote {
                        au,
                        poll,
                        voter: identity,
                        damage: Vec::new(),
                        nominations: Vec::new(),
                        proof_valid: false,
                    },
                );
            }
        }
        schedule_adversary_timer(world, eng, self.wave_interval, TAG_WAVE);
    }
}

impl Adversary for VoteFlood {
    fn name(&self) -> Label {
        Label::VoteFlood
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.minions = world.add_minions(8);
        self.wave(world, eng);
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        if tag == TAG_WAVE {
            self.wave(world, eng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let v = VoteFlood::new(5, Duration::HOUR);
        assert_eq!(v.votes_per_wave, 5);
        assert!(Identity(v.next_identity).is_minion());
    }
}
