//! Voter-side session state (§4.1, §5.1).
//!
//! After admitting an invitation, the voter commits: it reserves schedule
//! time for the vote computation (released if the poller deserts before
//! sending the PollProof), computes and ships the vote, serves a bounded
//! number of repairs, and finally expects a valid evaluation receipt — the
//! MBF byproduct — failing which the poller is penalized to debt.
//!
//! The voter machine — the handlers for Poll, PollProof, RepairRequest and
//! EvaluationReceipt and the session's timers — is an `impl World` block
//! beside [`VoterSession`]; each step finds its session by poll id in the
//! peer's voting table and does nothing when it is gone.

use lockss_effort::Purpose;
use lockss_net::NodeId;
use lockss_sim::{Duration, SimTime};
use lockss_storage::AuId;

use crate::config::ProtocolConfig;
use crate::msg::Message;
use crate::schedule::Reservation;
use crate::trace::TraceEvent;
use crate::types::{Identity, PollId};
use crate::world::{Eng, World};

/// Stage of a voter session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VoterStage {
    /// Committed (PollAck sent); awaiting the PollProof.
    AwaitingProof,
    /// PollProof received; the vote computation occupies the reservation.
    ComputingVote,
    /// Vote sent; awaiting the evaluation receipt. The session is removed
    /// when the receipt arrives.
    AwaitingReceipt,
}

/// One voter-side commitment to one poll.
#[derive(Clone, Debug)]
pub struct VoterSession {
    pub au: AuId,
    pub poller: Identity,
    /// Where replies go on the network.
    pub poller_node: NodeId,
    pub stage: VoterStage,
    /// The reserved CPU slot for the vote computation.
    pub reservation: Reservation,
    /// When the vote must be delivered by (from the Poll message).
    pub vote_deadline: SimTime,
    /// Repairs served so far in this poll (bounded, §4.3).
    pub repairs_served: u32,
}

impl VoterSession {
    /// Creates a fresh committed session.
    pub fn new(
        au: AuId,
        poller: Identity,
        poller_node: NodeId,
        reservation: Reservation,
        vote_deadline: SimTime,
    ) -> VoterSession {
        VoterSession {
            au,
            poller,
            poller_node,
            stage: VoterStage::AwaitingProof,
            reservation,
            vote_deadline,
            repairs_served: 0,
        }
    }

    /// True if this session may still serve a repair (§4.3: voters are
    /// expected to supply a small number of repairs once committed).
    pub fn may_serve_repair(&self, max_repairs: u32) -> bool {
        self.stage == VoterStage::AwaitingReceipt && self.repairs_served < max_repairs
    }
}

/// Key for a voter session: the poll it serves.
pub type VoterKey = PollId;

impl World {
    /// An invitation arrived (§5.1 admission control, then commitment).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn voter_on_poll(
        &mut self,
        eng: &mut Eng,
        p: usize,
        from: NodeId,
        au: AuId,
        id: PollId,
        poller: Identity,
        intro_valid: bool,
        vote_deadline: SimTime,
    ) {
        let now = eng.now();
        if self.peers.voting(p).contains_key(&id) {
            return; // duplicate invitation for an existing commitment
        }
        // Admission filter. The split borrow passes the config by reference
        // alongside the mutable peer columns — no per-invitation clone.
        let verdict = {
            let World { cfg, peers, .. } = self;
            let (au_state, rng) = peers.au_and_rng_mut(p, au.index());
            au_state
                .admission
                .filter(poller, &au_state.known, now, &cfg.protocol, rng)
        };
        self.trace(eng, || TraceEvent::Admission {
            peer: p as u32,
            poller: poller.0,
            verdict,
        });
        if !verdict.is_admitted() {
            return; // silent for the sender; free for us
        }

        // Consideration: session + introductory-effort verification.
        self.charge_loyal(p, Purpose::Consider, self.costs.consider);
        if !intro_valid {
            // Garbage proof: cheap detection, then reject. The refractory
            // period was already triggered by the admission — which is the
            // entire point of the §7.3 attack.
            let detect = self.balanced_effort(self.costs.bogus_intro_detect);
            self.charge_loyal(p, Purpose::VerifyIntro, detect);
            return;
        }
        let verify = self.balanced_effort(self.costs.intro_verify);
        self.charge_loyal(p, Purpose::VerifyIntro, verify);

        // Schedule check (§5.1): the whole vote-service computation must
        // fit before the deadline.
        let vote_cost = self.balanced_effort(self.costs.remaining_verify)
            + self.costs.au_hash
            + self.balanced_effort(self.costs.vote_proof_gen);
        let reservation = self.peers.schedule_mut(p).try_reserve(
            now,
            now,
            vote_deadline.saturating_sub(Duration::MINUTE),
            vote_cost,
        );
        let from_node = self.peers.node(p);
        let Some(reservation) = reservation else {
            self.send_message(
                eng,
                from_node,
                from,
                Message::PollAck {
                    au,
                    poll: id,
                    accept: false,
                },
            );
            return;
        };

        let session = VoterSession::new(au, poller, from, reservation, vote_deadline);
        self.peers.open_voter_session(p, id, session);
        self.send_message(
            eng,
            from_node,
            from,
            Message::PollAck {
                au,
                poll: id,
                accept: true,
            },
        );
        // If the poller deserts (INTRO strategy), release the reservation
        // and penalize (§5.1 reservation attack defense).
        eng.schedule_in(ProtocolConfig::PROOF_TIMEOUT, move |w: &mut World, e| {
            w.voter_proof_timeout(e, p, id);
        });
    }

    fn voter_proof_timeout(&mut self, eng: &mut Eng, p: usize, id: PollId) {
        let Some(s) = self
            .peers
            .close_voter_session(p, id, VoterStage::AwaitingProof)
        else {
            return;
        };
        self.peers.schedule_mut(p).cancel(s.reservation);
        self.peers
            .au_mut(p, s.au.index())
            .known
            .penalize(s.poller, eng.now());
    }

    /// The PollProof arrived: the vote computation occupies the reserved
    /// slot (§4.1).
    pub(crate) fn voter_on_proof(
        &mut self,
        eng: &mut Eng,
        p: usize,
        id: PollId,
        au: AuId,
        remaining_valid: bool,
    ) {
        let now = eng.now();
        let Some(s) = self.peers.voter_session_mut(p, id) else {
            return;
        };
        if s.stage != VoterStage::AwaitingProof || s.au != au {
            return;
        }
        if !remaining_valid {
            // Bogus remaining proof: abort, penalize.
            let (res, poller) = (s.reservation, s.poller);
            self.peers.schedule_mut(p).cancel(res);
            self.peers
                .close_voter_session(p, id, VoterStage::AwaitingProof);
            self.peers.au_mut(p, au.index()).known.penalize(poller, now);
            return;
        }
        s.stage = VoterStage::ComputingVote;
        let compute_done = s.reservation.end.max(now);
        eng.schedule_at(compute_done, move |w: &mut World, e| {
            w.voter_vote_computed(e, p, id);
        });
    }

    fn voter_vote_computed(&mut self, eng: &mut Eng, p: usize, id: PollId) {
        let Some(s) = self.peers.voter_session_mut(p, id) else {
            return;
        };
        if s.stage != VoterStage::ComputingVote {
            return;
        }
        s.stage = VoterStage::AwaitingReceipt;
        let (au, poller_node, vote_deadline) = (s.au, s.poller_node, s.vote_deadline);
        // Charge the vote-service compute (the reserved slot).
        let verify_remaining = self.balanced_effort(self.costs.remaining_verify);
        self.charge_loyal(p, Purpose::VerifyRemaining, verify_remaining);
        self.charge_loyal(p, Purpose::ComputeVote, self.costs.au_hash);
        let gen_proof = self.balanced_effort(self.costs.vote_proof_gen);
        self.charge_loyal(p, Purpose::GenVoteProof, gen_proof);

        let from = self.peers.node(p);
        let me = self.peers.identity(p);
        let compromised = self.peers.is_compromised(p);
        let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
        // A compromised peer votes from the lying shadow snapshot — hiding
        // its corruption and volunteering as a repair candidate for blocks
        // it will then poison.
        let damage = match &au_state.shadow {
            Some(shadow) if compromised => shadow.snapshot(),
            _ => au_state.replica.snapshot(),
        };
        let nominations = au_state.reflist.nominate(ProtocolConfig::NOMINATIONS, rng);
        self.send_message(
            eng,
            from,
            poller_node,
            Message::Vote {
                au,
                poll: id,
                voter: me,
                damage,
                nominations,
                proof_valid: true,
            },
        );
        // Expect the receipt within the poll's remaining lifetime.
        let slack = ProtocolConfig::RECEIPT_SLACK + self.cfg.protocol.poll_interval.mul_f64(0.35);
        let deadline = vote_deadline + slack;
        eng.schedule_at(deadline, move |w: &mut World, e| {
            w.voter_receipt_deadline(e, p, id);
        });
    }

    fn voter_receipt_deadline(&mut self, eng: &mut Eng, p: usize, id: PollId) {
        let Some(s) = self
            .peers
            .close_voter_session(p, id, VoterStage::AwaitingReceipt)
        else {
            return;
        };
        // Wasteful-strategy defense (§5.1): no receipt, straight to debt.
        self.peers
            .au_mut(p, s.au.index())
            .known
            .penalize(s.poller, eng.now());
    }

    pub(crate) fn voter_on_receipt(&mut self, eng: &mut Eng, p: usize, id: PollId, valid: bool) {
        let now = eng.now();
        let Some(s) = self
            .peers
            .close_voter_session(p, id, VoterStage::AwaitingReceipt)
        else {
            return;
        };
        let decay = self.cfg.protocol.grade_decay;
        let au_state = self.peers.au_mut(p, s.au.index());
        if valid {
            // Completed exchange: we supplied a vote, the poller consumed
            // it — its grade at us drops one step (§5.1 reciprocity).
            au_state.known.lower(s.poller, now, decay);
        } else {
            au_state.known.penalize(s.poller, now);
        }
    }

    /// RepairRequest arrived at a voter (§4.3).
    pub(crate) fn voter_on_repair_request(
        &mut self,
        eng: &mut Eng,
        p: usize,
        poll: PollId,
        block: u64,
    ) {
        let now = eng.now();
        let Some(s) = self.peers.voter_session_mut(p, poll) else {
            return;
        };
        if !s.may_serve_repair(ProtocolConfig::MAX_REPAIRS_SERVED) {
            return;
        }
        s.repairs_served += 1;
        let (au, poller_node) = (s.au, s.poller_node);
        let cost = self.costs.repair_serve;
        let res = self.peers.schedule_mut(p).reserve(now, cost);
        self.charge_loyal(p, Purpose::ServeRepair, cost);
        let from = self.peers.node(p);
        eng.schedule_at(res.end, move |w: &mut World, e| {
            w.send_message(e, from, poller_node, Message::Repair { au, poll, block });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_sim::Duration;

    fn session(stage: VoterStage, served: u32) -> VoterSession {
        let mut sched = crate::schedule::TaskSchedule::new();
        let reservation = sched.reserve(SimTime::ZERO, Duration::SECOND);
        let mut s = VoterSession::new(
            AuId(0),
            Identity(1),
            NodeId(1),
            reservation,
            SimTime::ZERO + Duration::DAY,
        );
        s.stage = stage;
        s.repairs_served = served;
        s
    }

    #[test]
    fn repair_service_requires_vote_sent_and_budget() {
        assert!(!session(VoterStage::AwaitingProof, 0).may_serve_repair(4));
        assert!(!session(VoterStage::ComputingVote, 0).may_serve_repair(4));
        assert!(session(VoterStage::AwaitingReceipt, 0).may_serve_repair(4));
        assert!(!session(VoterStage::AwaitingReceipt, 4).may_serve_repair(4));
    }
}
