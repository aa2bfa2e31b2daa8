//! Voter-side session state (§4.1, §5.1).
//!
//! After admitting an invitation, the voter commits: it reserves schedule
//! time for the vote computation (released if the poller deserts before
//! sending the PollProof), computes and ships the vote, serves a bounded
//! number of repairs, and finally expects a valid evaluation receipt — the
//! MBF byproduct — failing which the poller is penalized to debt.

use lockss_net::NodeId;
use lockss_sim::SimTime;
use lockss_storage::AuId;

use crate::schedule::Reservation;
use crate::types::{Identity, PollId};

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
    /// Whether the committed invitation was admitted via introduction
    /// (diagnostics).
    pub via_introduction: bool,
}

impl VoterSession {
    /// Creates a fresh committed session.
    pub fn new(
        au: AuId,
        poller: Identity,
        poller_node: NodeId,
        reservation: Reservation,
        vote_deadline: SimTime,
        via_introduction: bool,
    ) -> VoterSession {
        VoterSession {
            au,
            poller,
            poller_node,
            stage: VoterStage::AwaitingProof,
            reservation,
            vote_deadline,
            repairs_served: 0,
            via_introduction,
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
            false,
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
