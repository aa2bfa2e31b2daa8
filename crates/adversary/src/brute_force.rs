//! The brute-force effortful adversary (§7.4).
//!
//! "We consider an attack by a 'brute force' adversary who continuously
//! sends enough poll invitations with valid introductory efforts to get
//! past the random drops; ... the adversary launches attacks from in-debt
//! addresses. We conservatively initialize all adversary addresses with a
//! debt grade at all loyal peers."
//!
//! Once through admission control, the adversary defects at one of three
//! points:
//!
//! - [`Defection::Intro`]: never follows up the PollAck with a PollProof
//!   (the reservation attack — the victim cancels and penalizes);
//! - [`Defection::Remaining`]: supplies the PollProof, receives the
//!   expensive vote, then never sends an EvaluationReceipt (the wasteful
//!   attack);
//! - [`Defection::None_`]: participates fully, indistinguishable from a
//!   legitimate (if insatiable) poller.
//!
//! Every invitation carries a *real* introductory effort, charged to the
//! adversary; dropped invitations are sunk cost — that is the economics
//! the admission filter is calibrated to (§6.3).

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Adversary, Identity, Label, Message, PollId, World};
use lockss_net::NodeId;
use lockss_sim::{Duration, Engine, FxHashMap, SimTime};
use lockss_storage::AuId;

use crate::flood::{burst_tag, burst_target, open_bursts, wait_out_refractory};

const KIND_BURST: u64 = 0;
const KIND_ACK_TIMEOUT: u64 = 1;

fn timeout_tag(poll: PollId) -> u64 {
    KIND_ACK_TIMEOUT | (poll.0 << 4)
}

fn decode_timeout(tag: u64) -> PollId {
    PollId(tag >> 4)
}

/// Where the brute-force adversary defects (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Defection {
    /// Desert after the Poll message (reservation attack).
    Intro,
    /// Desert after the PollProof (waste the vote).
    Remaining,
    /// Never desert: full participation.
    None_,
}

impl Defection {
    /// Table-1 row label.
    pub fn label(self) -> &'static str {
        match self {
            Defection::Intro => "INTRO",
            Defection::Remaining => "REMAINING",
            Defection::None_ => "NONE",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BogusStage {
    AwaitingAck,
    AwaitingVote,
}

#[derive(Clone, Copy, Debug)]
struct BogusPoll {
    victim: usize,
    au: u32,
    stage: BogusStage,
    minion: NodeId,
}

/// The §7.4 brute-force attacker.
pub struct BruteForce {
    pub defection: Defection,
    /// Minion network nodes (assigned round-robin per victim/AU).
    minions: Vec<NodeId>,
    /// In-flight bogus polls. Only looked up, inserted into and removed
    /// from, never iterated, so its order cannot reach a run.
    pending: FxHashMap<PollId, BogusPoll>,
}

impl BruteForce {
    /// Creates the attacker with the given defection strategy.
    pub fn new(defection: Defection) -> BruteForce {
        BruteForce {
            defection,
            minions: Vec::new(),
            pending: FxHashMap::default(),
        }
    }

    /// The stable in-debt identity used against (victim, au).
    fn identity_for(&self, victim: usize, au: u32, n_aus: usize) -> Identity {
        Identity(Identity::MINION_BASE + (victim * n_aus) as u64 + au as u64)
    }

    fn minion_for(&self, victim: usize, au: u32) -> NodeId {
        self.minions[(victim + au as usize) % self.minions.len()]
    }

    /// Sends one invitation (with a real introductory effort) and arms the
    /// silent-drop timeout.
    fn send_try(&mut self, world: &mut World, eng: &mut Engine<World>, victim: usize, au: u32) {
        let now = eng.now();
        // Real introductory effort per try (§6.3 economics). Free if the
        // effort-balancing ablation removed the requirement.
        let intro = world.balanced_effort(world.costs().intro_gen);
        world.charge_adversary(intro);

        let poll = world.alloc_poll_id();
        // Provenance: the trace ties this bogus poll id to the strategy
        // before its Poll message appears in the stream.
        world.note_adversary_action(eng, Label::BruteForcePoll, poll.0);
        let minion = self.minion_for(victim, au);
        let identity = self.identity_for(victim, au, world.cfg.n_aus);
        let victim_node = world.peers.node(victim);
        let vote_deadline = now + Duration::DAY * 2;
        self.pending.insert(
            poll,
            BogusPoll {
                victim,
                au,
                stage: BogusStage::AwaitingAck,
                minion,
            },
        );
        world.send_message(
            eng,
            minion,
            victim_node,
            Message::Poll {
                au: AuId(au),
                poll,
                poller: identity,
                intro_valid: true,
                vote_deadline,
            },
        );
        schedule_adversary_timer(world, eng, Duration::MINUTE * 10, timeout_tag(poll));
    }

    /// Schedules the next admission burst against (victim, au) one
    /// refractory period out.
    fn schedule_next_burst(&self, world: &World, eng: &mut Engine<World>, victim: usize, au: u32) {
        let refractory = world.cfg.protocol.refractory;
        schedule_adversary_timer(
            world,
            eng,
            refractory + Duration::MINUTE,
            burst_tag(KIND_BURST, victim, au),
        );
    }

    /// Removes and returns the in-flight bogus poll `poll` if it is at
    /// `stage`. A miss leaves the table as it was: no entry is made for
    /// it, so the table grows nothing.
    fn take(&mut self, poll: PollId, stage: BogusStage) -> Option<BogusPoll> {
        match self.pending.get(&poll) {
            Some(entry) if entry.stage == stage => self.pending.remove(&poll),
            _ => None,
        }
    }

    fn on_ack_timeout(&mut self, world: &mut World, eng: &mut Engine<World>, poll: PollId) {
        // Silently dropped (or refused without reply): retry immediately —
        // the whole point of brute force is to push through the drops.
        if let Some(entry) = self.take(poll, BogusStage::AwaitingAck) {
            self.send_try(world, eng, entry.victim, entry.au);
        }
    }

    fn on_ack(&mut self, world: &mut World, eng: &mut Engine<World>, poll: PollId, accept: bool) {
        let Some(entry) = self.take(poll, BogusStage::AwaitingAck) else {
            return;
        };
        // Whether accepted or refused, the admission has consumed the
        // victim's unknown/in-debt slot: the refractory period is armed. At
        // INTRO the adversary deserts, and the victim holds a reservation
        // until its proof timeout fires.
        if accept && self.defection != Defection::Intro {
            let remaining = world.balanced_effort(world.costs().remaining_gen);
            world.charge_adversary(remaining);
            let victim_node = world.peers.node(entry.victim);
            world.send_message(
                eng,
                entry.minion,
                victim_node,
                Message::PollProof {
                    au: AuId(entry.au),
                    poll,
                    remaining_valid: true,
                },
            );
            let stage = BogusStage::AwaitingVote;
            self.pending.insert(poll, BogusPoll { stage, ..entry });
        }
        self.schedule_next_burst(world, eng, entry.victim, entry.au);
    }

    fn on_vote(&mut self, world: &mut World, eng: &mut Engine<World>, poll: PollId) {
        let Some(entry) = self.take(poll, BogusStage::AwaitingVote) else {
            return;
        };
        if self.defection == Defection::None_ {
            // Full participation: evaluate the vote (the adversary has an
            // incorruptible replica, but evaluation effort is evaluation
            // effort) and return the valid receipt (the MBF byproduct).
            let costs = world.costs();
            let eval = costs.au_hash + costs.vote_proof_verify;
            world.charge_adversary(eval);
            let victim_node = world.peers.node(entry.victim);
            world.send_message(
                eng,
                entry.minion,
                victim_node,
                Message::EvaluationReceipt {
                    au: AuId(entry.au),
                    poll,
                    valid: true,
                },
            );
        }
        // REMAINING: silently discard the vote; the victim penalizes us at
        // its receipt deadline — we are already in debt.
    }
}

impl Adversary for BruteForce {
    fn name(&self) -> Label {
        match self.defection {
            Defection::Intro => Label::BruteForceIntro,
            Defection::Remaining => Label::BruteForceRemaining,
            Defection::None_ => Label::BruteForceNone,
        }
    }

    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>) {
        self.minions = world.add_minions(16);
        let n_aus = world.cfg.n_aus;
        // Conservative §7.4 initialization: all attack identities start in
        // debt at their victims.
        for victim in 0..world.n_loyal() {
            for au in 0..n_aus as u32 {
                let id = self.identity_for(victim, au, n_aus);
                world.peers.au_mut(victim, au as usize).known.seed(
                    id,
                    lockss_core::reputation::Grade::Debt,
                    SimTime::ZERO,
                );
            }
            open_bursts(world, eng, KIND_BURST, victim);
        }
    }

    fn on_message(
        &mut self,
        world: &mut World,
        eng: &mut Engine<World>,
        _minion: NodeId,
        _from: NodeId,
        msg: Message,
    ) {
        match msg {
            Message::PollAck { poll, accept, .. } => self.on_ack(world, eng, poll, accept),
            Message::Vote { poll, .. } => self.on_vote(world, eng, poll),
            // Repairs/receipts to minions are impossible (loyal peers never
            // solicit minions); ignore anything else.
            _ => {}
        }
    }

    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        match tag & 0xF {
            KIND_BURST => {
                // Insider information: wait out any live refractory period
                // rather than wasting intro efforts against it.
                if let Some((victim, au)) = burst_target(world, tag) {
                    if !wait_out_refractory(world, eng, KIND_BURST, victim, au) {
                        self.send_try(world, eng, victim, au);
                    }
                }
            }
            KIND_ACK_TIMEOUT => {
                let poll = decode_timeout(tag);
                self.on_ack_timeout(world, eng, poll);
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
        let p = timeout_tag(PollId(123456));
        assert_eq!(p & 0xF, KIND_ACK_TIMEOUT);
        assert_eq!(decode_timeout(p), PollId(123456));
    }

    #[test]
    fn identities_are_stable_and_distinct() {
        let a = BruteForce::new(Defection::Intro);
        let x = a.identity_for(1, 2, 50);
        let y = a.identity_for(1, 2, 50);
        let z = a.identity_for(2, 2, 50);
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(x.is_minion());
    }

    #[test]
    fn labels() {
        assert_eq!(Defection::Intro.label(), "INTRO");
        assert_eq!(Defection::Remaining.label(), "REMAINING");
        assert_eq!(Defection::None_.label(), "NONE");
    }
}
