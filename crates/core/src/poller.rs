//! Poller-side poll state (§4.1–§4.3).
//!
//! A poll proceeds through a *vote solicitation* phase — individual,
//! desynchronized invitations to the inner circle sampled from the
//! reference list, plus discovered outer-circle peers — and an *evaluation*
//! phase that tallies votes block by block, fetches repairs where the
//! poller is outvoted in a landslide, and concludes with receipts.

use lockss_sim::SimTime;
use lockss_storage::AuId;

use crate::types::{Identity, PollId};

/// Solicitation status of one invitee.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InviteeStatus {
    /// An invitation send is scheduled (attempt counter included).
    Scheduled { attempt: u32 },
    /// Poll sent; awaiting PollAck.
    Invited { attempt: u32 },
    /// PollAck(accept) received; PollProof being generated/sent.
    Accepted,
    /// PollProof sent; awaiting the Vote.
    AwaitingVote,
    /// Vote recorded.
    Voted,
    /// Refused or timed out; eligible for a retry.
    Refused { attempts: u32 },
    /// Gave up on this invitee for this poll.
    Dead,
}

/// One invited voter.
#[derive(Clone, Debug)]
pub struct Invitee {
    pub id: Identity,
    pub status: InviteeStatus,
    /// Inner-circle votes determine the outcome; outer-circle votes only
    /// demonstrate good behaviour (§4.2).
    pub inner: bool,
}

/// A recorded vote.
#[derive(Clone, Debug)]
pub struct RecordedVote {
    pub voter: Identity,
    /// The voter's damaged-block snapshot (sorted).
    pub damage: Vec<u64>,
    pub inner: bool,
}

/// Phase of a poll.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PollPhase {
    Soliciting,
    Evaluating,
    Repairing,
    Finished,
}

/// The poller's full state for one poll on one AU.
#[derive(Clone, Debug)]
pub struct PollState {
    pub id: PollId,
    pub au: AuId,
    pub started: SimTime,
    /// End of the solicitation window; evaluation begins here.
    pub solicit_deadline: SimTime,
    /// Hard conclusion time (the next poll starts on schedule regardless).
    pub conclude_at: SimTime,
    pub phase: PollPhase,
    pub invitees: Vec<Invitee>,
    pub votes: Vec<RecordedVote>,
    /// Outer-circle candidates accumulated from nominations (§4.2).
    pub nominated_pool: Vec<Identity>,
    pub outer_launched: bool,
    /// Repairs requested and not yet received.
    pub pending_repairs: u32,
    /// Repairs that could not be sourced from any voter.
    pub unrepairable: u32,
}

impl PollState {
    /// Creates a poll in the soliciting phase.
    pub fn new(
        id: PollId,
        au: AuId,
        started: SimTime,
        solicit_deadline: SimTime,
        conclude_at: SimTime,
    ) -> PollState {
        PollState {
            id,
            au,
            started,
            solicit_deadline,
            conclude_at,
            phase: PollPhase::Soliciting,
            invitees: Vec::new(),
            votes: Vec::new(),
            nominated_pool: Vec::new(),
            outer_launched: false,
            pending_repairs: 0,
            unrepairable: 0,
        }
    }

    /// Approximate heap bytes the poll holds: capacity × entry size of its
    /// lists, vote damage snapshots included.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let damage: usize = self.votes.iter().map(|v| v.damage.capacity()).sum();
        self.invitees.capacity() * size_of::<Invitee>()
            + self.votes.capacity() * size_of::<RecordedVote>()
            + damage * size_of::<u64>()
            + self.nominated_pool.capacity() * size_of::<Identity>()
    }

    /// Index of an invitee by identity.
    pub fn invitee_index(&self, id: Identity) -> Option<usize> {
        self.invitees.iter().position(|i| i.id == id)
    }

    /// True if `id` was already invited (any status).
    pub fn has_invitee(&self, id: Identity) -> bool {
        self.invitee_index(id).is_some()
    }

    /// Adds an invitee in `Scheduled` state; returns its index.
    pub fn add_invitee(&mut self, id: Identity, inner: bool) -> usize {
        self.invitees.push(Invitee {
            id,
            status: InviteeStatus::Scheduled { attempt: 0 },
            inner,
        });
        self.invitees.len() - 1
    }

    /// Adds `id` to the nominated pool unless it is already there, so the
    /// pool lists each candidate once, in first-seen order — the order
    /// `launch_outer` samples from. Returns whether it was added.
    pub fn nominate(&mut self, id: Identity) -> bool {
        let fresh = !self.nominated_pool.contains(&id);
        if fresh {
            self.nominated_pool.push(id);
        }
        fresh
    }

    /// Records a vote for an invitee, marking it `Voted`.
    pub fn record_vote(&mut self, voter: Identity, damage: Vec<u64>) -> bool {
        let Some(idx) = self.invitee_index(voter) else {
            return false; // unsolicited votes are ignored (§5.1)
        };
        let inner = self.invitees[idx].inner;
        if self.invitees[idx].status == InviteeStatus::Voted {
            return false; // duplicate
        }
        self.invitees[idx].status = InviteeStatus::Voted;
        self.votes.push(RecordedVote {
            voter,
            damage,
            inner,
        });
        true
    }

    /// Number of inner-circle votes received.
    pub fn inner_votes(&self) -> usize {
        self.votes.iter().filter(|v| v.inner).count()
    }

    /// Identities of inner voters (the decisive voters removed from the
    /// reference list at conclusion).
    pub fn decisive_voters(&self) -> Vec<Identity> {
        self.votes
            .iter()
            .filter(|v| v.inner)
            .map(|v| v.voter)
            .collect()
    }

    /// Voters (inner or outer) whose snapshot shows `block` intact —
    /// candidates to source a repair of that block.
    pub fn repair_candidates(&self, block: u64) -> Vec<Identity> {
        self.votes
            .iter()
            .filter(|v| v.damage.binary_search(&block).is_err())
            .map(|v| v.voter)
            .collect()
    }

    /// Inner voters disagreeing with the given (post-repair) damage set.
    pub fn inner_disagreements(&self, own_damage: &[u64]) -> usize {
        self.votes
            .iter()
            .filter(|v| v.inner && v.damage != own_damage)
            .count()
    }

    /// Outer voters agreeing with the given damage set (inserted into the
    /// reference list at conclusion, §4.2).
    pub fn agreeing_outer(&self, own_damage: &[u64]) -> Vec<Identity> {
        self.votes
            .iter()
            .filter(|v| !v.inner && v.damage == own_damage)
            .map(|v| v.voter)
            .collect()
    }

    /// Invitees that committed (accepted) but never delivered a vote —
    /// penalized at evaluation (§5.1 reciprocity).
    pub fn committed_non_voters(&self) -> Vec<Identity> {
        self.invitees
            .iter()
            .filter(|i| {
                matches!(
                    i.status,
                    InviteeStatus::Accepted | InviteeStatus::AwaitingVote
                )
            })
            .map(|i| i.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll() -> PollState {
        PollState::new(
            PollId(1),
            AuId(0),
            SimTime::ZERO,
            SimTime(100),
            SimTime(200),
        )
    }

    fn id(i: u64) -> Identity {
        Identity(i)
    }

    #[test]
    fn record_vote_requires_invitation() {
        let mut p = poll();
        assert!(!p.record_vote(id(1), vec![]), "unsolicited vote ignored");
        p.add_invitee(id(1), true);
        assert!(p.record_vote(id(1), vec![]));
        assert!(!p.record_vote(id(1), vec![]), "duplicate vote ignored");
        assert_eq!(p.inner_votes(), 1);
    }

    #[test]
    fn inner_and_outer_votes_separated() {
        let mut p = poll();
        p.add_invitee(id(1), true);
        p.add_invitee(id(2), false);
        p.record_vote(id(1), vec![]);
        p.record_vote(id(2), vec![]);
        assert_eq!(p.inner_votes(), 1);
        assert_eq!(p.decisive_voters(), vec![id(1)]);
    }

    #[test]
    fn repair_candidates_exclude_damaged_voters() {
        let mut p = poll();
        p.add_invitee(id(1), true);
        p.add_invitee(id(2), true);
        p.record_vote(id(1), vec![5]);
        p.record_vote(id(2), vec![7]);
        assert_eq!(p.repair_candidates(5), vec![id(2)]);
        assert_eq!(p.repair_candidates(7), vec![id(1)]);
        assert_eq!(p.repair_candidates(9).len(), 2);
    }

    #[test]
    fn disagreement_counting() {
        let mut p = poll();
        for i in 0..5 {
            p.add_invitee(id(i), true);
        }
        p.record_vote(id(0), vec![]);
        p.record_vote(id(1), vec![]);
        p.record_vote(id(2), vec![3]);
        assert_eq!(p.inner_disagreements(&[]), 1);
        assert_eq!(p.inner_disagreements(&[3]), 2);
    }

    #[test]
    fn agreeing_outer_voters() {
        let mut p = poll();
        p.add_invitee(id(1), false);
        p.add_invitee(id(2), false);
        p.record_vote(id(1), vec![]);
        p.record_vote(id(2), vec![9]);
        assert_eq!(p.agreeing_outer(&[]), vec![id(1)]);
    }

    #[test]
    fn committed_non_voters_detected() {
        let mut p = poll();
        let a = p.add_invitee(id(1), true);
        let b = p.add_invitee(id(2), true);
        p.add_invitee(id(3), true);
        p.invitees[a].status = InviteeStatus::Accepted;
        p.invitees[b].status = InviteeStatus::AwaitingVote;
        assert_eq!(p.committed_non_voters(), vec![id(1), id(2)]);
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    /// Up to 5 distinct damaged block indices in `0..32`, sorted (the
    /// canonical form a vote carries).
    fn random_damage(rng: &mut SimRng) -> Vec<u64> {
        let blocks: Vec<u64> = (0..32).collect();
        let k = rng.below(6);
        let mut d = rng.sample(&blocks, k);
        d.sort_unstable();
        d
    }

    /// Tally invariants over arbitrary vote sets: disagreement counts
    /// partition, repair candidates really are intact at the block, and
    /// decisive voters are exactly the inner voters.
    #[test]
    fn tally_invariants() {
        let mut rng = SimRng::seed_from_u64(0x706f_6c01);
        for _ in 0..128 {
            let damages: Vec<Vec<u64>> = (0..1 + rng.below(19))
                .map(|_| random_damage(&mut rng))
                .collect();
            let own = random_damage(&mut rng);
            let mut p = PollState::new(
                PollId(1),
                AuId(0),
                SimTime::ZERO,
                SimTime(1_000),
                SimTime(2_000),
            );
            for (i, d) in damages.iter().enumerate() {
                let id = Identity(i as u64);
                let inner = i % 3 != 0; // mix inner and outer
                p.add_invitee(id, inner);
                assert!(p.record_vote(id, d.clone()));
            }
            let inner_total = p.inner_votes();
            let disagreeing = p.inner_disagreements(&own);
            let agreeing = p
                .votes
                .iter()
                .filter(|v| v.inner && v.damage == own)
                .count();
            assert_eq!(inner_total, disagreeing + agreeing);
            assert_eq!(p.decisive_voters().len(), inner_total);

            for block in 0u64..32 {
                for candidate in p.repair_candidates(block) {
                    let vote = p.votes.iter().find(|v| v.voter == candidate).unwrap();
                    assert!(
                        !vote.damage.contains(&block),
                        "candidate must be intact at {block}"
                    );
                }
            }
        }
    }

    /// Votes are only counted once per invitee and only from invitees.
    #[test]
    fn vote_recording_is_exact() {
        let mut rng = SimRng::seed_from_u64(0x706f_6c02);
        for _ in 0..128 {
            let n_invited = 1 + rng.below(9);
            let n_strangers = rng.below(5);
            let mut p = PollState::new(
                PollId(2),
                AuId(0),
                SimTime::ZERO,
                SimTime(1_000),
                SimTime(2_000),
            );
            for i in 0..n_invited {
                p.add_invitee(Identity(i as u64), true);
            }
            // Strangers' votes are all rejected.
            for s in 0..n_strangers {
                assert!(!p.record_vote(Identity(1_000 + s as u64), vec![]));
            }
            // Each invitee votes twice; the second is rejected.
            for i in 0..n_invited {
                assert!(p.record_vote(Identity(i as u64), vec![]));
                assert!(!p.record_vote(Identity(i as u64), vec![]));
            }
            assert_eq!(p.votes.len(), n_invited);
        }
    }
}
