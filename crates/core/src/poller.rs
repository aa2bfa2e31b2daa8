//! The poller: poll state and the machine that drives it (§4.1–§4.3).
//!
//! A poll proceeds through a *vote solicitation* phase — individual,
//! desynchronized invitations to the inner circle sampled from the
//! reference list, plus discovered outer-circle peers — and an *evaluation*
//! phase that tallies votes block by block, fetches repairs where the
//! poller is outvoted in a landslide, and concludes with receipts.
//!
//! The machine is an `impl World` block beside [`PollState`]. Each step
//! (invite, ack, vote, outer-circle launch, evaluation, tally, repair,
//! conclusion) is a timer or message that may arrive after its poll
//! concluded or was replaced, so each finds its poll through
//! [`PeerTable::live_poll`](crate::peer::PeerTable::live_poll) and does
//! nothing when it is gone.

use lockss_effort::Purpose;
use lockss_net::NodeId;
use lockss_sim::{Duration, SimTime};
use lockss_storage::AuId;

use crate::config::ProtocolConfig;
use crate::msg::Message;
use crate::trace::{PollConclusion, TraceEvent};
use crate::types::{Identity, PollId};
use crate::world::{Eng, Taps, World};

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
}

/// The poller's full state for one poll on one AU.
#[derive(Clone, Debug)]
pub struct PollState {
    pub id: PollId,
    pub au: AuId,
    pub started: SimTime,
    /// End of the solicitation window; evaluation begins here.
    pub solicit_deadline: SimTime,
    pub phase: PollPhase,
    pub invitees: Vec<Invitee>,
    pub votes: Vec<RecordedVote>,
    /// Outer-circle candidates accumulated from nominations (§4.2). The
    /// outer-circle launch, the pool's only reader, takes it
    /// ([`PollState::take_pool`]); it is `None` from then to the poll's
    /// end, and later nominations are dropped.
    pub nominated_pool: Option<Vec<Identity>>,
    /// Repairs requested and not yet received.
    pub pending_repairs: u32,
}

impl PollState {
    /// Creates a poll in the soliciting phase.
    pub fn new(id: PollId, au: AuId, started: SimTime, solicit_deadline: SimTime) -> PollState {
        PollState {
            id,
            au,
            started,
            solicit_deadline,
            phase: PollPhase::Soliciting,
            invitees: Vec::new(),
            votes: Vec::new(),
            nominated_pool: Some(Vec::new()),
            pending_repairs: 0,
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
            + self.nominated_pool.as_ref().map_or(0, Vec::capacity) * size_of::<Identity>()
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
    /// `launch_outer` samples from. Returns whether it was added: never
    /// once the pool was taken.
    pub fn nominate(&mut self, id: Identity) -> bool {
        let Some(pool) = &mut self.nominated_pool else {
            return false;
        };
        let fresh = !pool.contains(&id);
        if fresh {
            pool.push(id);
        }
        fresh
    }

    /// Takes the nominated pool for the outer-circle launch; nominations
    /// after this are dropped. Empty if it was already taken.
    pub fn take_pool(&mut self) -> Vec<Identity> {
        self.nominated_pool.take().unwrap_or_default()
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

impl World {
    /// Opens a new poll on `au` at peer `p` (§4.1).
    pub fn start_poll(&mut self, eng: &mut Eng, p: usize, au: AuId) {
        // Copy the handful of scalars this path needs instead of cloning
        // the whole ProtocolConfig per poll.
        let solicit_window = self.cfg.protocol.solicit_window();
        let poll_interval = self.cfg.protocol.poll_interval;
        let synchronous = self.cfg.protocol.ablation.synchronous_solicitation;
        let now = eng.now();
        self.metrics.polls.register(p as u32, au.0, now);
        let id = self.alloc_poll_id();
        self.trace(eng, || TraceEvent::PollStart {
            peer: p as u32,
            au: au.0,
            poll: id.0,
        });
        let solicit_deadline = now + solicit_window;
        let mut poll = PollState::new(id, au, now, solicit_deadline);

        // Sample the inner circle from the reference list, topped up with
        // friends if the list has shrunk below the circle size.
        let me = self.peers.identity(p);
        let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
        let mut circle = au_state.reflist.sample(ProtocolConfig::INNER_CIRCLE, rng);
        if circle.len() < ProtocolConfig::INNER_CIRCLE {
            for &f in au_state.reflist.friends() {
                if circle.len() >= ProtocolConfig::INNER_CIRCLE {
                    break;
                }
                if !circle.contains(&f) && f != me {
                    circle.push(f);
                }
            }
        }
        for v in circle {
            poll.add_invitee(v, true);
        }
        let n = poll.invitees.len();
        au_state.poll = Some(poll);

        // Desynchronization (§5.2): stagger invitations individually over
        // the first 60% of the solicitation window. (The ablation solicits
        // everyone at once — the synchronization failure mode §5.2 warns
        // about.)
        let spread = if synchronous {
            Duration::SECOND * 2
        } else {
            solicit_window.mul_f64(0.6)
        };
        // Here and in every invitation timer, the peer and invitee indexes
        // ride as `u32`s, so the closure fits the engine's 24-byte inline
        // payload.
        let peer = p as u32;
        for idx in 0..n as u32 {
            let at = now
                + self
                    .peers
                    .rng_mut(p)
                    .duration_between(Duration::SECOND, spread);
            eng.schedule_at(at, move |w: &mut World, e| {
                w.send_invite(e, peer as usize, au, id, idx as usize);
            });
        }
        // Outer-circle launch, evaluation and hard-conclusion checkpoints.
        let outer_at = now + solicit_window.mul_f64(0.62);
        eng.schedule_at(outer_at, move |w: &mut World, e| {
            w.launch_outer(e, p, au, id);
        });
        eng.schedule_at(solicit_deadline, move |w: &mut World, e| {
            w.begin_evaluation(e, p, au, id);
        });
        eng.schedule_at(now + poll_interval, move |w: &mut World, e| {
            w.conclude_guard(e, p, au, id);
        });
    }

    /// Generates the introductory effort and sends a Poll invitation
    /// (possibly a retry).
    fn send_invite(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId, idx: usize) {
        let Some(poll) = self.peers.live_poll_mut(p, au, id) else {
            return;
        };
        if poll.phase != PollPhase::Soliciting {
            return;
        }
        let inv = &mut poll.invitees[idx];
        let attempt = match inv.status {
            InviteeStatus::Scheduled { attempt } => attempt,
            InviteeStatus::Refused { attempts } => attempts,
            _ => return, // already in flight or done
        };
        inv.status = InviteeStatus::Invited { attempt };
        // Give the voter the vote deadline with a small delivery margin.
        let vote_deadline = poll.solicit_deadline.saturating_sub(Duration::MINUTE);
        let now = eng.now();
        if now + Duration::MINUTE >= vote_deadline {
            return; // too late in the window to bother
        }

        // The introductory effort occupies the poller's CPU (§5.1).
        let intro = self.balanced_effort(self.costs.intro_gen);
        let res = self.peers.schedule_mut(p).reserve(now, intro);
        self.charge_loyal(p, Purpose::GenIntro, intro);
        // The send reads the invitee, the deadline and the poller's node
        // and identity back when it runs, rather than capturing them, so
        // it fits the inline payload: a live poll found by its id is this
        // poll, its invitees are only appended to, and neither its
        // deadline nor the peer's columns change.
        let (peer, idx) = (p as u32, idx as u32);
        eng.schedule_at(res.end, move |w: &mut World, e| {
            let p = peer as usize;
            let Some(poll) = w.peers.live_poll(p, au, id) else {
                return;
            };
            let invitee = poll.invitees[idx as usize].id;
            let vote_deadline = poll.solicit_deadline.saturating_sub(Duration::MINUTE);
            let Some(to) = w.node_of(invitee) else { return };
            // Whether or not the send succeeded (pipe stoppage) or the
            // voter silently drops it, an ack timeout drives the retry.
            w.send_message(
                e,
                w.peers.node(p),
                to,
                Message::Poll {
                    au,
                    poll: id,
                    poller: w.peers.identity(p),
                    intro_valid: true,
                    vote_deadline,
                },
            );
            e.schedule_in(ProtocolConfig::INVITE_TIMEOUT, move |w: &mut World, e| {
                w.invite_timeout(e, peer as usize, au, id, idx as usize, attempt);
            });
        });
    }

    /// PollAck handling (§4.1).
    pub(crate) fn poller_on_ack(
        &mut self,
        eng: &mut Eng,
        p: usize,
        au: AuId,
        id: PollId,
        from: NodeId,
        accept: bool,
    ) {
        // Identify the invitee by its node.
        let Some(invitee) = self
            .loyal_peer_of_node(from)
            .map(|i| self.peers.identity(i))
        else {
            return;
        };
        let Some(poll) = self.peers.live_poll_mut(p, au, id) else {
            return;
        };
        let Some(idx) = poll.invitee_index(invitee) else {
            return;
        };
        if !accept {
            self.mark_refused_and_maybe_retry(eng, p, au, id, idx);
            return;
        }
        let status = &mut poll.invitees[idx].status;
        if !matches!(status, InviteeStatus::Invited { .. }) {
            return;
        }
        *status = InviteeStatus::Accepted;
        // Generate and ship the remaining effort proof (§5.1).
        let now = eng.now();
        let remaining = self.balanced_effort(self.costs.remaining_gen);
        let res = self.peers.schedule_mut(p).reserve(now, remaining);
        self.charge_loyal(p, Purpose::GenRemaining, remaining);
        // A peer's node never changes, so the closure reads it when it
        // runs rather than capturing it, and fits the inline payload.
        let peer = p as u32;
        eng.schedule_at(res.end, move |w: &mut World, e| {
            let p = peer as usize;
            let Some(poll) = w.peers.live_poll_mut(p, au, id) else {
                return;
            };
            let Some(idx) = poll.invitee_index(invitee) else {
                return;
            };
            let status = &mut poll.invitees[idx].status;
            if *status != InviteeStatus::Accepted {
                return;
            }
            *status = InviteeStatus::AwaitingVote;
            let Some(to) = w.node_of(invitee) else {
                return;
            };
            let from_node = w.peers.node(p);
            w.send_message(
                e,
                from_node,
                to,
                Message::PollProof {
                    au,
                    poll: id,
                    remaining_valid: true,
                },
            );
        });
    }

    /// No PollAck arrived in time: treat as reluctance and retry later in
    /// the same solicitation phase (§4.1).
    fn invite_timeout(
        &mut self,
        eng: &mut Eng,
        p: usize,
        au: AuId,
        id: PollId,
        idx: usize,
        attempt: u32,
    ) {
        let Some(poll) = self.peers.live_poll(p, au, id) else {
            return;
        };
        if poll.invitees[idx].status == (InviteeStatus::Invited { attempt }) {
            self.mark_refused_and_maybe_retry(eng, p, au, id, idx);
        }
    }

    /// Marks invitee `idx` of the live poll `id` refused, scheduling a
    /// retry if attempts and window remain, or gives up on it.
    fn mark_refused_and_maybe_retry(
        &mut self,
        eng: &mut Eng,
        p: usize,
        au: AuId,
        id: PollId,
        idx: usize,
    ) {
        let now = eng.now();
        let poll = self
            .peers
            .live_poll_mut(p, au, id)
            .expect("refusals are handled for the live poll");
        let attempts = match poll.invitees[idx].status {
            InviteeStatus::Invited { attempt } => attempt + 1,
            InviteeStatus::Scheduled { attempt } => attempt + 1,
            _ => return,
        };
        if attempts >= ProtocolConfig::MAX_INVITE_ATTEMPTS
            || now + Duration::HOUR * 2 >= poll.solicit_deadline
        {
            poll.invitees[idx].status = InviteeStatus::Dead;
            return;
        }
        poll.invitees[idx].status = InviteeStatus::Refused { attempts };
        // Spread retries uniformly over what is left of the window.
        let window = poll.solicit_deadline.since(now);
        let wait = self
            .peers
            .rng_mut(p)
            .duration_between(Duration::MINUTE * 30, window.max(Duration::HOUR));
        let (peer, idx) = (p as u32, idx as u32);
        eng.schedule_in(wait, move |w: &mut World, e| {
            w.retry_invite(e, peer as usize, au, id, idx as usize);
        });
    }

    fn retry_invite(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId, idx: usize) {
        let Some(poll) = self.peers.live_poll_mut(p, au, id) else {
            return;
        };
        let InviteeStatus::Refused { attempts } = poll.invitees[idx].status else {
            return;
        };
        if poll.phase == PollPhase::Soliciting {
            poll.invitees[idx].status = InviteeStatus::Scheduled { attempt: attempts };
            self.send_invite(eng, p, au, id, idx);
        }
    }

    /// A Vote arrived (§4.2): record it and harvest nominations into the
    /// outer-circle pool and the introduction table.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn poller_on_vote(
        &mut self,
        eng: &mut Eng,
        p: usize,
        au: AuId,
        id: PollId,
        voter: Identity,
        damage: Vec<u64>,
        nominations: Vec<Identity>,
        proof_valid: bool,
    ) {
        let Some(poll) = self.peers.live_poll(p, au, id) else {
            return; // unsolicited or stale: ignored for free (§5.1)
        };
        // Vote-flood defense (§5.1): votes from identities we never
        // invited are ignored without any effort.
        if !poll.has_invitee(voter) {
            return;
        }
        let now = eng.now();
        if !proof_valid {
            // Bogus vote from a real invitee: one block hash detects it;
            // penalize and discard.
            self.charge_loyal(p, Purpose::VerifyVoteProof, self.costs.block_hash);
            self.peers.au_mut(p, au.index()).known.penalize(voter, now);
            return;
        }
        // Destructuring splits the borrow: the protocol config is read-only
        // alongside the mutable peer columns, so nothing needs cloning.
        let World { cfg, peers, .. } = self;
        let cfg = &cfg.protocol;
        let me = peers.identity(p);
        let (au_state, rng) = peers.au_and_rng_mut(p, au.index());
        let poll = au_state.poll.as_mut().expect("the vote's poll is live");
        if !poll.record_vote(voter, damage) {
            return; // unsolicited or duplicate votes are ignored (§5.1)
        }
        // Harvest nominations: randomly partition into outer-circle
        // candidates and introductions (§5.1).
        for nominee in nominations {
            if nominee == me || nominee == voter || nominee.is_minion() {
                continue;
            }
            if rng.chance(ProtocolConfig::INTRODUCTION_FRAC) {
                au_state.admission.introduce(nominee, voter, now, cfg);
            } else {
                poll.nominate(nominee);
            }
        }
    }

    /// A Repair block arrived at the poller (§4.3). `from` is the serving
    /// node: a block handed over by a *currently compromised* peer is
    /// poison — applying it leaves the target block damaged (and damages
    /// it if it was intact, the frivolous-repair infection vector). The
    /// apply effort is charged either way; the poller cannot tell.
    pub(crate) fn poller_on_repair(
        &mut self,
        eng: &mut Eng,
        p: usize,
        from: NodeId,
        au: AuId,
        id: PollId,
        block: u64,
    ) {
        let Some(poll) = self.peers.live_poll_mut(p, au, id) else {
            return;
        };
        poll.pending_repairs = poll.pending_repairs.saturating_sub(1);
        let done = poll.phase == PollPhase::Repairing && poll.pending_repairs == 0;
        self.charge_loyal(p, Purpose::ApplyRepair, self.costs.repair_apply);
        let poisoner = self
            .loyal_peer_of_node(from)
            .filter(|&s| self.peers.is_compromised(s));
        let replica = &mut self.peers.au_mut(p, au.index()).replica;
        let was_intact = replica.is_intact();
        if let Some(server) = poisoner {
            replica.damage(block);
            let newly_damaged = was_intact && !replica.is_intact();
            self.trace(eng, || TraceEvent::PoisonedRepair {
                peer: p as u32,
                au: au.0,
                poll: id.0,
                block,
                server: server as u32,
            });
            if newly_damaged {
                self.metrics.damage.on_damaged(eng.now());
            }
        } else {
            replica.repair(block);
            let became_intact = !was_intact && replica.is_intact();
            self.trace(eng, || TraceEvent::Repair {
                peer: p as u32,
                au: au.0,
                poll: id.0,
                block,
                intact_after: became_intact,
            });
            if became_intact {
                self.metrics.damage.on_repaired(eng.now());
            }
        }
        if done {
            self.finalize_poll(eng, p, au, id);
        }
    }

    /// Launches the outer circle (§4.2): solicit votes from discovered
    /// peers to observe their behaviour.
    fn launch_outer(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        let Some(poll) = self.peers.live_poll_mut(p, au, id) else {
            return;
        };
        let mut candidates = poll.take_pool();
        let now = eng.now();
        let window = poll.solicit_deadline.since(now).mul_f64(0.7);
        let me = self.peers.identity(p);
        let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
        let poll = au_state.poll.as_mut().expect("the launching poll is live");
        let reflist = &au_state.reflist;
        candidates.retain(|&c| c != me && !reflist.contains(c) && !poll.has_invitee(c));
        let picked = rng.sample(&candidates, ProtocolConfig::OUTER_CIRCLE);
        for v in picked {
            if poll.has_invitee(v) {
                continue;
            }
            let idx = poll.add_invitee(v, false) as u32;
            let at = now + rng.duration_between(Duration::SECOND, window);
            let peer = p as u32;
            eng.schedule_at(at, move |w: &mut World, e| {
                w.send_invite(e, peer as usize, au, id, idx as usize);
            });
        }
    }

    /// Solicitation window closed: evaluate (§4.3).
    fn begin_evaluation(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        let Some(poll) = self.peers.live_poll_mut(p, au, id) else {
            return;
        };
        let _span = Taps::span(&self.taps, "poll-evaluate");
        if poll.phase != PollPhase::Soliciting {
            return;
        }
        poll.phase = PollPhase::Evaluating;
        // Penalize invitees that committed but never delivered (§5.1).
        let deserters = poll.committed_non_voters();
        let n_votes = poll.votes.len();
        let now = eng.now();
        let known = &mut self.peers.au_mut(p, au.index()).known;
        for d in deserters {
            known.penalize(d, now);
        }
        if n_votes == 0 {
            // Nothing to evaluate; conclude as failed.
            self.finalize_poll(eng, p, au, id);
            return;
        }
        let proof_checks = self.balanced_effort(self.costs.vote_proof_verify * n_votes as u64);
        let cost = self.costs.au_hash + proof_checks;
        let res = self.peers.schedule_mut(p).reserve(now, cost);
        self.charge_loyal(p, Purpose::Evaluate, self.costs.au_hash);
        self.charge_loyal(p, Purpose::VerifyVoteProof, proof_checks);
        eng.schedule_at(res.end, move |w: &mut World, e| {
            w.tally(e, p, au, id);
        });
    }

    /// Block-wise tally and repair planning (§4.3).
    fn tally(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        let Some(poll) = self.peers.live_poll(p, au, id) else {
            return;
        };
        let quorum_met = poll.inner_votes() >= ProtocolConfig::QUORUM;
        let blocks = self.cfg.au_spec.blocks();

        let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
        let poll = au_state.poll.as_mut().expect("the tallied poll is live");
        let mut repair_plan: Vec<(u64, Identity)> = Vec::new();
        if quorum_met {
            // Every damaged block of our replica meets landslide
            // disagreement (damaged content never matches anyone): fetch a
            // repair from a voter whose vote shows the block intact.
            for block in au_state.replica.snapshot() {
                if let Some(&v) = rng.choose(&poll.repair_candidates(block)) {
                    repair_plan.push((block, v));
                }
            }
            // Frivolous repair (§4.3): keep voters honest about serving.
            if rng.chance(ProtocolConfig::FRIVOLOUS_REPAIR_PROB) && !poll.votes.is_empty() {
                let block = rng.below(blocks as usize) as u64;
                let pick = rng.below(poll.votes.len());
                let v = poll.votes[pick].voter;
                repair_plan.push((block, v));
            }
        }
        // A request planned from a voter with no loyal node is never sent,
        // so it is not awaited.
        let awaited = repair_plan
            .iter()
            .filter(|(_, v)| v.loyal_index().is_some())
            .count() as u32;
        poll.phase = PollPhase::Repairing;
        poll.pending_repairs = awaited;

        let from = self.peers.node(p);
        for (block, voter) in repair_plan {
            // The one counted fact no event carries.
            if let Some(o) = self.taps.as_ref().and_then(|t| t.obs.as_ref()) {
                o.repairs_requested.inc();
            }
            if let Some(to) = self.node_of(voter) {
                let request = Message::RepairRequest {
                    au,
                    poll: id,
                    block,
                };
                self.send_message(eng, from, to, request);
            }
        }
        if awaited == 0 {
            self.finalize_poll(eng, p, au, id);
        }
    }

    /// Hard conclusion: if repairs (or evaluation) are stuck at the poll's
    /// scheduled end, finish anyway; the next poll starts on time
    /// (autonomous rate limitation).
    fn conclude_guard(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        if self.peers.live_poll(p, au, id).is_some() {
            self.finalize_poll(eng, p, au, id);
        }
    }

    /// Concludes the live poll `id` (§4.3): receipts, grades,
    /// reference-list update, metrics, and the next poll's schedule. Every
    /// caller has just found the poll live.
    pub(crate) fn finalize_poll(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        let _span = Taps::span(&self.taps, "poll-finalize");
        // Scalar copies instead of a whole-config clone.
        let grade_decay = self.cfg.protocol.grade_decay;
        let poll_interval = self.cfg.protocol.poll_interval;
        let now = eng.now();

        let au_state = self.peers.au_mut(p, au.index());
        let poll = au_state.poll.take().filter(|poll| poll.id == id);
        let poll = poll.expect("the concluded poll is live");
        let my_damage = au_state.replica.snapshot();
        let inner_votes = poll.inner_votes();
        let disagreeing = poll.inner_disagreements(&my_damage);
        let conclusion = if inner_votes < ProtocolConfig::QUORUM {
            PollConclusion::Inquorate
        } else if disagreeing <= ProtocolConfig::MAX_DISAGREE {
            PollConclusion::Win
        } else if disagreeing >= inner_votes.saturating_sub(ProtocolConfig::MAX_DISAGREE) {
            PollConclusion::Loss
        } else {
            PollConclusion::Inconclusive
        };
        let votes = poll.votes.len() as u32;
        self.trace(eng, || TraceEvent::PollOutcome {
            peer: p as u32,
            au: au.0,
            poll: id.0,
            conclusion,
            votes,
        });

        // Grades: every voter that supplied a valid vote is raised (§5.1).
        let known = &mut self.peers.au_mut(p, au.index()).known;
        for v in &poll.votes {
            known.raise(v.voter, now, grade_decay);
        }

        // Receipts: the MBF byproduct of evaluation (§5.1); evaluation was
        // already charged, so receipts cost only the send.
        let from = self.peers.node(p);
        for v in &poll.votes {
            if let Some(to) = self.node_of(v.voter) {
                self.send_message(
                    eng,
                    from,
                    to,
                    Message::EvaluationReceipt {
                        au,
                        poll: id,
                        valid: true,
                    },
                );
            }
        }

        // Reference-list update only on a decisive outcome (§4.3).
        if conclusion == PollConclusion::Win {
            let agreeing_outer = poll.agreeing_outer(&my_damage);
            let decisive = poll.decisive_voters();
            let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
            au_state
                .reflist
                .conclude_poll(&decisive, &agreeing_outer, rng);
        }

        // Metrics.
        match conclusion {
            PollConclusion::Win => self.metrics.polls.on_success(p as u32, au.0, now),
            PollConclusion::Inquorate => self.metrics.polls.on_failure(),
            PollConclusion::Loss | PollConclusion::Inconclusive => {
                // A loss should have been repaired away; both raise alarms.
                self.metrics.polls.on_failure();
                self.metrics.polls.on_alarm();
            }
        }

        // Next poll: autonomous fixed rate with jitter (§5.1).
        let next_start = poll.started
            + self
                .peers
                .rng_mut(p)
                .jitter(poll_interval, ProtocolConfig::INTERVAL_JITTER);
        let at = next_start.max(now + Duration::SECOND);
        eng.schedule_at(at, move |w: &mut World, e| {
            w.start_poll(e, p, au);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll() -> PollState {
        PollState::new(PollId(1), AuId(0), SimTime::ZERO, SimTime(100))
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
            let mut p = PollState::new(PollId(1), AuId(0), SimTime::ZERO, SimTime(1_000));
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
            let mut p = PollState::new(PollId(2), AuId(0), SimTime::ZERO, SimTime(1_000));
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
