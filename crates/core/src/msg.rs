//! Protocol messages (§4.1's time-line: Poll, PollAck, PollProof, Vote,
//! RepairRequest, Repair, EvaluationReceipt).
//!
//! In simulation mode, effort proofs are carried as validity flags (their
//! cost is charged through `lockss-effort`, exactly as the paper's Narses
//! runs modelled them) and a vote carries the voter's damage-set snapshot,
//! from which block-hash agreement is computed set-wise.

use lockss_effort::CostModel;
use lockss_sim::SimTime;
use lockss_storage::AuId;

use crate::trace::MsgKind;
use crate::types::{Identity, PollId};

/// A protocol message body.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Invitation into a poll, carrying the introductory effort proof
    /// (§5.1: sized to cover the voter's wait for the PollProof).
    Poll {
        au: AuId,
        poll: PollId,
        /// The identity the poller presents (reputation is tracked on
        /// identities; the adversary mints them freely).
        poller: Identity,
        /// Whether the introductory effort proof verifies (the admission
        /// flood adversary sends garbage).
        intro_valid: bool,
        /// When the poller needs the vote by.
        vote_deadline: SimTime,
    },
    /// Acceptance or refusal of an invitation (§4.1: the voter commits and
    /// reserves local resources on acceptance).
    PollAck {
        au: AuId,
        poll: PollId,
        accept: bool,
    },
    /// The remaining effort proof plus the vote-construction nonce.
    PollProof {
        au: AuId,
        poll: PollId,
        remaining_valid: bool,
    },
    /// A vote: running block hashes of the voter's replica, modelled as the
    /// damage-set snapshot, plus discovery nominations (§4.2).
    Vote {
        au: AuId,
        poll: PollId,
        /// The voting identity.
        voter: Identity,
        /// Damaged block indices of the voter's replica (sorted).
        damage: Vec<u64>,
        /// Identities nominated from the voter's reference list.
        nominations: Vec<Identity>,
        /// Whether the vote's embedded effort proof verifies.
        proof_valid: bool,
    },
    /// Request for a repair block from a disagreeing voter (§4.3).
    RepairRequest { au: AuId, poll: PollId, block: u64 },
    /// The repair block content.
    Repair { au: AuId, poll: PollId, block: u64 },
    /// Proof that the poller evaluated the vote: the MBF byproduct (§5.1).
    EvaluationReceipt { au: AuId, poll: PollId, valid: bool },
}

impl Message {
    /// The AU this message concerns.
    pub fn au(&self) -> AuId {
        match self {
            Message::Poll { au, .. }
            | Message::PollAck { au, .. }
            | Message::PollProof { au, .. }
            | Message::Vote { au, .. }
            | Message::RepairRequest { au, .. }
            | Message::Repair { au, .. }
            | Message::EvaluationReceipt { au, .. } => *au,
        }
    }

    /// The poll this message belongs to.
    pub fn poll(&self) -> PollId {
        match self {
            Message::Poll { poll, .. }
            | Message::PollAck { poll, .. }
            | Message::PollProof { poll, .. }
            | Message::Vote { poll, .. }
            | Message::RepairRequest { poll, .. }
            | Message::Repair { poll, .. }
            | Message::EvaluationReceipt { poll, .. } => *poll,
        }
    }

    /// Wire size in bytes under the cost model (drives transfer delays).
    pub fn wire_bytes(&self, cost: &CostModel) -> u64 {
        match self {
            // Invitation with an MBF introductory proof (~4 KB of witness).
            Message::Poll { .. } => 4_096,
            Message::PollAck { .. } => 256,
            // Remaining effort proof is the bulk of the poller's witness.
            Message::PollProof { .. } => 8_192,
            // One 20-byte running hash per block, plus nominations.
            Message::Vote { nominations, .. } => cost.vote_bytes() + 64 * nominations.len() as u64,
            Message::RepairRequest { .. } => 256,
            // A full block of content.
            Message::Repair { .. } => cost.block_bytes + 256,
            Message::EvaluationReceipt { .. } => 256,
        }
    }

    /// This message's kind (its code and label on the trace).
    pub fn kind(&self) -> MsgKind {
        match self {
            Message::Poll { .. } => MsgKind::Poll,
            Message::PollAck { .. } => MsgKind::PollAck,
            Message::PollProof { .. } => MsgKind::PollProof,
            Message::Vote { .. } => MsgKind::Vote,
            Message::RepairRequest { .. } => MsgKind::RepairRequest,
            Message::Repair { .. } => MsgKind::Repair,
            Message::EvaluationReceipt { .. } => MsgKind::EvaluationReceipt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll_msg() -> Message {
        Message::Poll {
            au: AuId(1),
            poll: PollId(9),
            poller: Identity::loyal(3),
            intro_valid: true,
            vote_deadline: SimTime::ZERO,
        }
    }

    #[test]
    fn accessors() {
        let m = poll_msg();
        assert_eq!(m.au(), AuId(1));
        assert_eq!(m.poll(), PollId(9));
        assert_eq!(m.kind(), MsgKind::Poll);
        assert_eq!(m.kind().label(), "Poll");
    }

    #[test]
    fn vote_size_scales_with_blocks_and_nominations() {
        let cost = CostModel::default();
        let small = Message::Vote {
            au: AuId(0),
            poll: PollId(0),
            voter: Identity::loyal(2),
            damage: vec![],
            nominations: vec![],
            proof_valid: true,
        };
        let big = Message::Vote {
            au: AuId(0),
            poll: PollId(0),
            voter: Identity::loyal(2),
            damage: vec![],
            nominations: vec![Identity::loyal(1); 8],
            proof_valid: true,
        };
        assert_eq!(small.wire_bytes(&cost), cost.vote_bytes());
        assert_eq!(big.wire_bytes(&cost), cost.vote_bytes() + 512);
        // 500 blocks at 20 bytes each dominates.
        assert!(small.wire_bytes(&cost) > 10_000);
    }

    #[test]
    fn repair_carries_a_block() {
        let cost = CostModel::default();
        let m = Message::Repair {
            au: AuId(0),
            poll: PollId(0),
            block: 3,
        };
        assert!(m.wire_bytes(&cost) > cost.block_bytes);
    }
}
