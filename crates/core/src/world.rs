//! The simulated world: peers, network, storage damage, metrics, adversary.
//!
//! All protocol behaviour is orchestrated here as discrete events. Peer
//! compute (effort proofs, hashing) occupies each peer's single-CPU
//! [`crate::schedule::TaskSchedule`]; message transfers go through the
//! flow-level network; every CPU-second is charged to an effort ledger so
//! the §6.1 metrics fall out directly.
//!
//! Peer state lives in the struct-of-arrays [`PeerTable`]
//! (see [`crate::peer`]), and world construction is O(population ×
//! reference-list size): initial reference lists are drawn through the
//! sparse index sampler and steady-state reputation is a lazy
//! founding-population rule, so a 10k–100k-peer world builds in
//! milliseconds and fits in a handful of flat allocations.

use lockss_effort::{CostModel, CostTable, Purpose};
use lockss_metrics::RunMetrics;
use lockss_net::{Network, NodeId};
use lockss_sim::{Duration, Engine, SimRng, SimTime};
use lockss_storage::{AuId, DamageProcess};

use lockss_obs::{SharedProfiler, Span};

use crate::adversary::Adversary;
use crate::config::WorldConfig;
use crate::msg::Message;
use crate::obs::CoreObs;
use crate::peer::{AuState, PeerTable};
use crate::poller::{InviteeStatus, PollPhase, PollState};
use crate::reflist::RefList;
use crate::reputation::Grade;
use crate::trace::{AdmissionVerdict, PollConclusion, TraceEvent, TraceSink};
use crate::types::{Identity, PollId};
use crate::voter::{VoterSession, VoterStage};

/// Engine alias: all events run against the world.
pub type Eng = Engine<World>;

/// The complete simulation state.
pub struct World {
    /// The run's configuration. Treat as immutable once the world is
    /// built: the derived-cost table below is snapshotted from `cfg.cost`
    /// at construction, so mutating `cfg.cost` afterwards would silently
    /// desynchronize effort charges from wire sizes. Configure before
    /// `World::new`, as every existing caller does.
    pub cfg: WorldConfig,
    /// Derived costs snapshotted from `cfg.cost` at construction (the
    /// accessors re-derive float identities per call; the protocol reads
    /// them on every invite/ack/vote).
    costs: CostTable,
    pub net: Network,
    /// All loyal peers, struct-of-arrays, indexed by peer index.
    pub peers: PeerTable,
    pub metrics: RunMetrics,
    pub rng: SimRng,
    pub adversary: Option<Box<dyn Adversary>>,
    /// Which sub-strategy of a composite adversary the current timer/event
    /// belongs to (see [`crate::adversary::schedule_adversary_timer`]).
    /// Always 0 for simple adversaries.
    adversary_channel: u64,
    /// The installed trace sink, if this run is being traced.
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Metric handles (see [`crate::obs`]), counted from the emitted
    /// events.
    obs: Option<Box<CoreObs>>,
    /// True while a sink or metric handles are installed. Events are built
    /// only then, so a run with neither pays one branch per emission site
    /// (see [`World::trace`]).
    observed: bool,
    /// Profiler shared with the runner, for spans around poll evaluation.
    /// Strictly out-of-band: wall-clock only, never read by the protocol.
    profiler: Option<SharedProfiler>,
    next_poll_id: u64,
    n_loyal: usize,
    /// Network node → loyal peer index (nodes absent here belong to the
    /// adversary). Lookup-only, so hashing order cannot leak into runs;
    /// probed on every message delivery, hence the fast hasher.
    node_to_peer: lockss_sim::FxHashMap<NodeId, usize>,
}

impl World {
    /// Builds the world: loyal peers with sampled links, pristine replicas,
    /// seeded reference lists and reputation (a steady-state proxy:
    /// everyone starts known-at-even, documented in DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(cfg: WorldConfig) -> World {
        cfg.validate().expect("invalid world configuration");
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let mut net = Network::new();
        let nodes = match cfg.link_mix {
            Some(mix) => net.add_weighted_nodes(cfg.n_peers, &mix, &mut rng),
            None => net.add_sampled_nodes(cfg.n_peers, &mut rng),
        };

        let n = cfg.n_peers;
        let mut peers = PeerTable::with_capacity(n, cfg.n_aus);
        for (i, node) in nodes.iter().enumerate() {
            let me = Identity::loyal(i as u32);
            // The identity at position `idx` of the virtual "everyone but
            // me" list the samplers draw from; the list itself is never
            // materialized (it cost O(population²) at build).
            let ident =
                |idx: usize| Identity::loyal(if idx < i { idx as u32 } else { idx as u32 + 1 });
            let friends: Vec<Identity> = rng
                .sample_indices(n - 1, cfg.protocol.friends)
                .into_iter()
                .map(ident)
                .collect();
            let mut per_au = Vec::with_capacity(cfg.n_aus);
            for _ in 0..cfg.n_aus {
                let initial: Vec<Identity> = rng
                    .sample_indices(n - 1, cfg.protocol.reflist_initial)
                    .into_iter()
                    .map(ident)
                    .collect();
                let mut au = AuState::new(RefList::new(friends.clone(), initial));
                au.known
                    .assume_population(n as u32, me, Grade::Even, SimTime::ZERO);
                per_au.push(au);
            }
            peers.push(*node, me, per_au, rng.fork());
        }

        let metrics = RunMetrics::new(cfg.total_replicas(), SimTime::ZERO);
        let node_to_peer = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        World {
            costs: cfg.cost.table(),
            cfg,
            net,
            peers,
            metrics,
            rng,
            adversary: None,
            adversary_channel: 0,
            trace_sink: None,
            obs: None,
            observed: false,
            profiler: None,
            next_poll_id: 0,
            n_loyal: nodes.len(),
            node_to_peer,
        }
    }

    /// Number of loyal peers.
    pub fn n_loyal(&self) -> usize {
        self.n_loyal
    }

    /// Registers a late-joining loyal peer's node (see `churn`).
    pub(crate) fn bump_loyal_count(&mut self) {
        let index = self.peers.len() - 1;
        let node = self.peers.node(index);
        self.node_to_peer.insert(node, index);
        self.n_loyal += 1;
    }

    /// The loyal peer living on `node`, if any.
    pub fn loyal_peer_of_node(&self, node: NodeId) -> Option<usize> {
        self.node_to_peer.get(&node).copied()
    }

    /// Adds `n` adversary minion nodes (well-connected: 100 Mbps, 5 ms)
    /// and returns their ids.
    pub fn add_minions(&mut self, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|_| {
                self.net.add_node(lockss_net::LinkSpec {
                    bandwidth_bps: 100_000_000,
                    latency: Duration::from_millis(5),
                })
            })
            .collect()
    }

    /// Installs an attack strategy (call before [`World::start`]).
    pub fn install_adversary(&mut self, adversary: Box<dyn Adversary>) {
        self.adversary = Some(adversary);
    }

    /// The adversary channel the current event is running on (0 unless a
    /// composite adversary stamped a child channel).
    pub fn adversary_channel(&self) -> u64 {
        self.adversary_channel
    }

    /// Stamps the adversary channel for subsequently scheduled adversary
    /// timers. Composite adversaries set this before entering a child
    /// strategy so the child's timers come back routed to it.
    pub fn set_adversary_channel(&mut self, channel: u64) {
        self.adversary_channel = channel;
    }

    /// Installs a trace sink: every causal event of the run from here on is
    /// delivered to it (see [`crate::trace`]). Install before
    /// [`World::start`] to capture the complete stream.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
        self.observed = true;
    }

    /// Removes and returns the installed trace sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.observed = self.obs.is_some();
        self.trace_sink.take()
    }

    /// Installs metric handles: the poll lifecycle, admission verdicts,
    /// and repair traffic are counted from here on. Install before
    /// [`World::start`] for complete totals.
    pub fn set_obs(&mut self, obs: CoreObs) {
        self.obs = Some(Box::new(obs));
        self.observed = true;
    }

    /// Shares a profiler with the world; poll evaluation opens spans on
    /// it. The world only ever *writes* wall-clock timings here, so
    /// simulation behaviour is independent of the profiler's presence.
    pub fn set_profiler(&mut self, profiler: SharedProfiler) {
        self.profiler = Some(profiler);
    }

    /// States one fact of the run: the only emission point of the event
    /// vocabulary. The event is built only while a sink or metric handles
    /// are installed, so a run with neither pays one branch here; the
    /// handles count it ([`CoreObs::observe`]), then the sink records it,
    /// and a sink that asks to stop (replay divergence) aborts the engine's
    /// run loop.
    #[inline]
    pub(crate) fn trace(&mut self, eng: &mut Eng, make: impl FnOnce() -> TraceEvent) {
        if self.observed {
            self.emit(eng, &make());
        }
    }

    fn emit(&mut self, eng: &mut Eng, event: &TraceEvent) {
        if let Some(obs) = self.obs.as_deref() {
            obs.observe(event);
        }
        if let Some(sink) = self.trace_sink.as_deref_mut() {
            sink.record(eng.now(), eng.executed(), event);
            if sink.wants_stop() {
                eng.request_stop();
            }
        }
    }

    /// Declares a provenance-tagged adversary action in the trace (a no-op
    /// untraced). Strategies call this at their decision points — a
    /// stoppage cycle starting, a flood wave launching, a sybil escalation
    /// step — so a trace names *which* adversary move caused what follows.
    pub fn note_adversary_action(&mut self, eng: &mut Eng, label: &'static str, magnitude: u64) {
        let channel = self.adversary_channel;
        self.trace(eng, || TraceEvent::AdversaryAction {
            channel,
            label: label.to_string(),
            magnitude,
        });
    }

    /// Records the start of a named attack phase in the run metrics (used
    /// by phased composite adversaries; see
    /// [`lockss_metrics::summary::RunMetrics::mark_phase`]).
    pub fn mark_phase(&mut self, label: &str, eng: &mut Eng) {
        self.metrics.mark_phase(label, eng.now());
        self.trace(eng, || TraceEvent::PhaseMark {
            label: label.to_string(),
        });
    }

    /// Allocates a globally unique poll id (also used by adversaries for
    /// their bogus polls).
    pub fn alloc_poll_id(&mut self) -> PollId {
        let id = PollId(self.next_poll_id);
        self.next_poll_id += 1;
        id
    }

    /// Charges loyal-peer CPU effort (ledger + run totals).
    pub fn charge_loyal(&mut self, peer: usize, purpose: Purpose, cost: Duration) {
        self.peers.ledger_mut(peer).charge(purpose, cost);
        self.metrics.loyal_effort_secs += cost.as_secs_f64();
    }

    /// Charges adversary CPU effort.
    pub fn charge_adversary(&mut self, cost: Duration) {
        self.metrics.adversary_effort_secs += cost.as_secs_f64();
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// An effort-balancing cost, or zero when the `no_effort_balancing`
    /// ablation is active (requests then cost their sender nothing — the
    /// pre-hardening protocol the paper's §1 recalls being abusable by ~50
    /// malign peers).
    pub fn balanced_effort(&self, d: Duration) -> Duration {
        if self.cfg.protocol.ablation.no_effort_balancing {
            Duration::ZERO
        } else {
            d
        }
    }

    /// Kicks off the run: schedules every peer's first poll per AU at a
    /// random phase (desynchronization), the storage-damage processes, and
    /// the adversary.
    pub fn start(&mut self, eng: &mut Eng) {
        let interval = self.cfg.protocol.poll_interval;
        for p in 0..self.peers.len() {
            for au in 0..self.cfg.n_aus {
                let phase = self.rng.duration_between(Duration::ZERO, interval);
                eng.schedule_at(SimTime::ZERO + phase, move |w: &mut World, e| {
                    w.start_poll(e, p, AuId(au as u32));
                });
            }
            self.schedule_next_damage(eng, p);
        }
        if let Some(mut adv) = self.adversary.take() {
            adv.begin(self, eng);
            self.adversary = Some(adv);
        }
    }

    // ------------------------------------------------------------------
    // Storage damage process (§7.1).
    // ------------------------------------------------------------------

    fn damage_process(&self) -> DamageProcess {
        DamageProcess::paper(self.cfg.mtbf_years, self.cfg.n_aus as u32)
    }

    fn schedule_next_damage(&mut self, eng: &mut Eng, peer: usize) {
        let proc = self.damage_process();
        let wait = proc.next_arrival(&mut self.rng);
        eng.schedule_in(wait, move |w: &mut World, e| {
            w.on_damage_event(e, peer);
        });
    }

    fn on_damage_event(&mut self, eng: &mut Eng, peer: usize) {
        let proc = self.damage_process();
        let blocks = self.cfg.au_spec.blocks();
        let (au, block) = proc.pick_target(&mut self.rng, blocks);
        let replica = &mut self.peers.au_mut(peer, au as usize).replica;
        let was_intact = replica.is_intact();
        replica.damage(block);
        self.trace(eng, || TraceEvent::Damage {
            peer: peer as u32,
            au,
            block,
            was_intact,
        });
        if was_intact {
            self.metrics.damage.on_damaged(eng.now());
        }
        self.schedule_next_damage(eng, peer);
    }

    // ------------------------------------------------------------------
    // Mobile-adversary compromise state (takeover / cure).
    // ------------------------------------------------------------------

    /// The mobile adversary takes over loyal peer `p`: each replica is
    /// snapshotted into a lying shadow (the pre-corruption view the peer
    /// votes from while compromised, hiding the takeover from pollers) and
    /// `blocks_per_au` of its real blocks are then corrupted. While
    /// compromised the peer also serves poisoned repairs — see
    /// `World::poller_on_repair`'s poison branch.
    ///
    /// Returns false (and changes nothing) if the peer is already
    /// compromised; budget accounting stays exact either way.
    pub fn compromise_peer(&mut self, eng: &mut Eng, p: usize, blocks_per_au: u64) -> bool {
        if self.peers.is_compromised(p) {
            return false;
        }
        self.peers.set_compromised(p, true);
        let blocks = self.cfg.au_spec.blocks() as usize;
        let now = eng.now();
        let mut corrupted = 0u64;
        for au in 0..self.cfg.n_aus {
            // The corruption targets are drawn from the world stream, like
            // the bit-rot damage process.
            let picks: Vec<u64> = (0..blocks_per_au)
                .map(|_| self.rng.below(blocks) as u64)
                .collect();
            let au_state = self.peers.au_mut(p, au);
            au_state.shadow = Some(au_state.replica.clone());
            let was_intact = au_state.replica.is_intact();
            for block in picks {
                if au_state.replica.damage(block) {
                    corrupted += 1;
                }
            }
            if was_intact && !au_state.replica.is_intact() {
                self.metrics.damage.on_damaged(now);
            }
        }
        self.trace(eng, || TraceEvent::Compromise {
            peer: p as u32,
            corrupted,
        });
        true
    }

    /// Cures peer `p`: loyal behavior is restored (shadows dropped, honest
    /// votes, honest repairs) but the replica damage the takeover left
    /// behind persists — healing it is the §4.3 repair machinery's job,
    /// which is exactly the recovery dynamic the mobile scenarios measure.
    ///
    /// Returns false (and changes nothing) if the peer is not compromised.
    pub fn cure_peer(&mut self, eng: &mut Eng, p: usize) -> bool {
        if !self.peers.is_compromised(p) {
            return false;
        }
        self.peers.set_compromised(p, false);
        let mut residual = 0u64;
        for au in 0..self.cfg.n_aus {
            let au_state = self.peers.au_mut(p, au);
            au_state.shadow = None;
            residual += au_state.replica.damaged_count() as u64;
        }
        self.trace(eng, || TraceEvent::Cure {
            peer: p as u32,
            residual,
        });
        true
    }

    // ------------------------------------------------------------------
    // Messaging.
    // ------------------------------------------------------------------

    /// Sends a protocol message; returns false if suppressed at the source
    /// (pipe stoppage). Delivery re-checks reachability so stoppage kills
    /// in-flight messages too.
    pub fn send_message(&mut self, eng: &mut Eng, from: NodeId, to: NodeId, msg: Message) -> bool {
        let bytes = msg.wire_bytes(&self.cfg.cost);
        let delay = self.net.send(from, to, bytes);
        self.trace(eng, || TraceEvent::MessageSend {
            from: from.0,
            to: to.0,
            kind: msg.kind(),
            au: msg.au().0,
            poll: msg.poll().0,
            suppressed: delay.is_none(),
        });
        match delay {
            None => false,
            Some(delay) => {
                eng.schedule_in(delay, move |w: &mut World, e| {
                    if !w.net.reachable(from, to) {
                        return; // killed mid-flight by pipe stoppage
                    }
                    w.deliver(e, from, to, msg);
                });
                true
            }
        }
    }

    fn deliver(&mut self, eng: &mut Eng, from: NodeId, to: NodeId, msg: Message) {
        if let Some(p) = self.loyal_peer_of_node(to) {
            self.handle_peer_message(eng, p, from, msg);
        } else if let Some(mut adv) = self.adversary.take() {
            adv.on_message(self, eng, to, from, msg);
            self.adversary = Some(adv);
        }
    }

    fn handle_peer_message(&mut self, eng: &mut Eng, p: usize, from: NodeId, msg: Message) {
        match msg {
            Message::Poll {
                au,
                poll,
                poller,
                intro_valid,
                vote_deadline,
            } => self.voter_on_poll(eng, p, from, au, poll, poller, intro_valid, vote_deadline),
            Message::PollAck { au, poll, accept } => {
                self.poller_on_ack(eng, p, au, poll, from, accept)
            }
            Message::PollProof {
                au,
                poll,
                remaining_valid,
            } => self.voter_on_proof(eng, p, poll, au, remaining_valid),
            Message::Vote {
                au,
                poll,
                voter,
                damage,
                nominations,
                proof_valid,
            } => self.poller_on_vote(eng, p, au, poll, voter, damage, nominations, proof_valid),
            Message::RepairRequest { poll, block, .. } => {
                self.voter_on_repair_request(eng, p, poll, block)
            }
            Message::Repair { au, poll, block } => {
                self.poller_on_repair(eng, p, from, au, poll, block)
            }
            Message::EvaluationReceipt { poll, valid, .. } => {
                self.voter_on_receipt(eng, p, poll, valid)
            }
        }
    }

    /// The network node a loyal identity lives on.
    fn node_of(&self, id: Identity) -> Option<NodeId> {
        id.loyal_index().map(|i| self.peers.node(i as usize))
    }

    // ------------------------------------------------------------------
    // Poller side.
    // ------------------------------------------------------------------

    /// Opens a new poll on `au` at peer `p` (§4.1).
    pub fn start_poll(&mut self, eng: &mut Eng, p: usize, au: AuId) {
        // Copy the handful of scalars this path needs instead of cloning
        // the whole ProtocolConfig per poll.
        let solicit_window = self.cfg.protocol.solicit_window();
        let poll_interval = self.cfg.protocol.poll_interval;
        let inner_circle = self.cfg.protocol.inner_circle;
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
        let conclude_at = now + poll_interval;
        let mut poll = PollState::new(id, au, now, solicit_deadline, conclude_at);

        // Sample the inner circle from the reference list, topped up with
        // friends if the list has shrunk below the circle size.
        let me = self.peers.identity(p);
        let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
        let mut circle = au_state.reflist.sample(inner_circle, rng);
        if circle.len() < inner_circle {
            for &f in au_state.reflist.friends() {
                if circle.len() >= inner_circle {
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
        for idx in 0..n {
            let at = now
                + self
                    .peers
                    .rng_mut(p)
                    .duration_between(Duration::SECOND, spread);
            eng.schedule_at(at, move |w: &mut World, e| {
                w.send_invite(e, p, au, id, idx);
            });
        }
        // Outer-circle launch and evaluation checkpoints.
        let outer_at = now + solicit_window.mul_f64(0.62);
        eng.schedule_at(outer_at, move |w: &mut World, e| {
            w.launch_outer(e, p, au, id);
        });
        eng.schedule_at(solicit_deadline, move |w: &mut World, e| {
            w.begin_evaluation(e, p, au, id);
        });
        eng.schedule_at(conclude_at, move |w: &mut World, e| {
            w.conclude_guard(e, p, au, id);
        });
    }

    /// True if the poll `id` is still the live poll for (p, au).
    fn poll_is_current(&self, p: usize, au: AuId, id: PollId) -> bool {
        self.peers
            .au(p, au.index())
            .poll
            .as_ref()
            .map(|poll| poll.id == id)
            .unwrap_or(false)
    }

    /// Generates the introductory effort and sends a Poll invitation
    /// (possibly a retry).
    fn send_invite(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId, idx: usize) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let now = eng.now();
        let (invitee, deadline, attempt) = {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
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
            (inv.id, poll.solicit_deadline, attempt)
        };
        // Give the voter the vote deadline with a small delivery margin.
        let vote_deadline = deadline.saturating_sub(Duration::MINUTE);
        if now + Duration::MINUTE >= vote_deadline {
            return; // too late in the window to bother
        }

        // The introductory effort occupies the poller's CPU (§5.1).
        let intro = self.balanced_effort(self.costs.intro_gen);
        let res = self.peers.schedule_mut(p).reserve(now, intro);
        self.charge_loyal(p, Purpose::GenIntro, intro);
        let poller_identity = self.peers.identity(p);
        let from = self.peers.node(p);
        eng.schedule_at(res.end, move |w: &mut World, e| {
            if !w.poll_is_current(p, au, id) {
                return;
            }
            let Some(to) = w.node_of(invitee) else { return };
            // Whether or not the send succeeded (pipe stoppage) or the
            // voter silently drops it, an ack timeout drives the retry.
            w.send_message(
                e,
                from,
                to,
                Message::Poll {
                    au,
                    poll: id,
                    poller: poller_identity,
                    intro_valid: true,
                    vote_deadline,
                },
            );
            let timeout = w.cfg.protocol.invite_timeout;
            e.schedule_in(timeout, move |w: &mut World, e| {
                w.invite_timeout(e, p, au, id, idx, attempt);
            });
        });
    }

    /// PollAck handling (§4.1).
    fn poller_on_ack(
        &mut self,
        eng: &mut Eng,
        p: usize,
        au: AuId,
        id: PollId,
        from: NodeId,
        accept: bool,
    ) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let now = eng.now();
        // Identify the invitee by its node.
        let Some(invitee_identity) = self
            .loyal_peer_of_node(from)
            .map(|i| self.peers.identity(i))
        else {
            return;
        };
        let idx = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            let Some(idx) = poll.invitee_index(invitee_identity) else {
                return;
            };
            idx
        };
        if !accept {
            self.mark_refused_and_maybe_retry(eng, p, au, id, idx);
            return;
        }
        {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
            if !matches!(poll.invitees[idx].status, InviteeStatus::Invited { .. }) {
                return;
            }
            poll.invitees[idx].status = InviteeStatus::Accepted;
        }
        // Generate and ship the remaining effort proof (§5.1).
        let remaining = self.balanced_effort(self.costs.remaining_gen);
        let res = self.peers.schedule_mut(p).reserve(now, remaining);
        self.charge_loyal(p, Purpose::GenRemaining, remaining);
        let from_node = self.peers.node(p);
        eng.schedule_at(res.end, move |w: &mut World, e| {
            if !w.poll_is_current(p, au, id) {
                return;
            }
            {
                let poll = w
                    .peers
                    .au_mut(p, au.index())
                    .poll
                    .as_mut()
                    .expect("current");
                let Some(idx) = poll.invitee_index(invitee_identity) else {
                    return;
                };
                if poll.invitees[idx].status != InviteeStatus::Accepted {
                    return;
                }
                poll.invitees[idx].status = InviteeStatus::AwaitingVote;
            }
            let Some(to) = w.node_of(invitee_identity) else {
                return;
            };
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
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let stale = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            poll.invitees[idx].status != InviteeStatus::Invited { attempt }
        };
        if stale {
            return;
        }
        self.mark_refused_and_maybe_retry(eng, p, au, id, idx);
    }

    fn mark_refused_and_maybe_retry(
        &mut self,
        eng: &mut Eng,
        p: usize,
        au: AuId,
        id: PollId,
        idx: usize,
    ) {
        let cfg_max = self.cfg.protocol.max_invite_attempts;
        let now = eng.now();
        let do_retry = {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
            let attempts = match poll.invitees[idx].status {
                InviteeStatus::Invited { attempt } => attempt + 1,
                InviteeStatus::Scheduled { attempt } => attempt + 1,
                _ => return,
            };
            if attempts >= cfg_max || now + Duration::HOUR * 2 >= poll.solicit_deadline {
                poll.invitees[idx].status = InviteeStatus::Dead;
                false
            } else {
                poll.invitees[idx].status = InviteeStatus::Refused { attempts };
                true
            }
        };
        if do_retry {
            // Spread retries uniformly over what is left of the window.
            let deadline = {
                let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
                poll.solicit_deadline
            };
            let window = deadline.since(now);
            let wait = self
                .peers
                .rng_mut(p)
                .duration_between(Duration::MINUTE * 30, window.max(Duration::HOUR));
            eng.schedule_in(wait, move |w: &mut World, e| {
                w.retry_invite(e, p, au, id, idx);
            });
        }
    }

    fn retry_invite(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId, idx: usize) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let ok = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            matches!(poll.invitees[idx].status, InviteeStatus::Refused { .. })
                && poll.phase == PollPhase::Soliciting
        };
        if ok {
            {
                let poll = self
                    .peers
                    .au_mut(p, au.index())
                    .poll
                    .as_mut()
                    .expect("current");
                if let InviteeStatus::Refused { attempts } = poll.invitees[idx].status {
                    poll.invitees[idx].status = InviteeStatus::Scheduled { attempt: attempts };
                }
            }
            self.send_invite(eng, p, au, id, idx);
        }
    }

    /// A Vote arrived (§4.2): record it and harvest nominations into the
    /// outer-circle pool and the introduction table.
    #[allow(clippy::too_many_arguments)]
    fn poller_on_vote(
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
        if !self.poll_is_current(p, au, id) {
            return; // unsolicited or stale: ignored for free (§5.1)
        }
        let now = eng.now();
        {
            // Vote-flood defense (§5.1): votes from identities we never
            // invited are ignored without any effort.
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            if !poll.has_invitee(voter) {
                return;
            }
        }
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
        let poll = au_state.poll.as_mut().expect("current");
        if !poll.record_vote(voter, damage) {
            return; // unsolicited or duplicate votes are ignored (§5.1)
        }
        // Harvest nominations: randomly partition into outer-circle
        // candidates and introductions (§5.1).
        for nominee in nominations {
            if nominee == me || nominee == voter || nominee.is_minion() {
                continue;
            }
            if rng.chance(cfg.introduction_frac) {
                au_state.admission.introduce(nominee, voter, now, cfg);
            } else {
                poll.nominate(nominee);
            }
        }
    }

    /// RepairRequest arrived at a voter (§4.3).
    fn voter_on_repair_request(&mut self, eng: &mut Eng, p: usize, poll: PollId, block: u64) {
        let cfg_max = self.cfg.protocol.max_repairs_served;
        let now = eng.now();
        let (au, poller_node, can) = {
            let Some(s) = self.peers.voting_mut(p).get_mut(&poll) else {
                return;
            };
            let can = s.may_serve_repair(cfg_max);
            if can {
                s.repairs_served += 1;
            }
            (s.au, s.poller_node, can)
        };
        if !can {
            return;
        }
        let cost = self.costs.repair_serve;
        let res = self.peers.schedule_mut(p).reserve(now, cost);
        self.charge_loyal(p, Purpose::ServeRepair, cost);
        let from = self.peers.node(p);
        eng.schedule_at(res.end, move |w: &mut World, e| {
            w.send_message(e, from, poller_node, Message::Repair { au, poll, block });
        });
    }

    /// A Repair block arrived at the poller (§4.3). `from` is the serving
    /// node: a block handed over by a *currently compromised* peer is
    /// poison — applying it leaves the target block damaged (and damages
    /// it if it was intact, the frivolous-repair infection vector). The
    /// apply effort is charged either way; the poller cannot tell.
    fn poller_on_repair(
        &mut self,
        eng: &mut Eng,
        p: usize,
        from: NodeId,
        au: AuId,
        id: PollId,
        block: u64,
    ) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let cost = self.costs.repair_apply;
        self.charge_loyal(p, Purpose::ApplyRepair, cost);
        let server = self.loyal_peer_of_node(from);
        let poisoned = server
            .map(|s| self.peers.is_compromised(s))
            .unwrap_or(false);
        if poisoned {
            let server = server.expect("poisoned implies a loyal-table server") as u32;
            let newly_damaged = {
                let au_state = self.peers.au_mut(p, au.index());
                let was_intact = au_state.replica.is_intact();
                au_state.replica.damage(block);
                was_intact && !au_state.replica.is_intact()
            };
            self.trace(eng, || TraceEvent::PoisonedRepair {
                peer: p as u32,
                au: au.0,
                poll: id.0,
                block,
                server,
            });
            if newly_damaged {
                self.metrics.damage.on_damaged(eng.now());
            }
        } else {
            let became_intact = {
                let au_state = self.peers.au_mut(p, au.index());
                let was_intact = au_state.replica.is_intact();
                au_state.replica.repair(block);
                !was_intact && au_state.replica.is_intact()
            };
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
        let done = {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
            poll.pending_repairs = poll.pending_repairs.saturating_sub(1);
            poll.phase == PollPhase::Repairing && poll.pending_repairs == 0
        };
        if done {
            self.finalize_poll(eng, p, au, id);
        }
    }

    /// Launches the outer circle (§4.2): solicit votes from discovered
    /// peers to observe their behaviour.
    fn launch_outer(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let outer_n = self.cfg.protocol.outer_circle;
        let now = eng.now();
        let candidates: Vec<Identity> = {
            let me = self.peers.identity(p);
            let au_state = self.peers.au(p, au.index());
            let poll = au_state.poll.as_ref().expect("current");
            let mut pool: Vec<Identity> = poll
                .nominated_pool
                .iter()
                .copied()
                .filter(|&c| c != me && !au_state.reflist.contains(c) && !poll.has_invitee(c))
                .collect();
            pool.dedup();
            pool
        };
        let picked = self.peers.rng_mut(p).sample(&candidates, outer_n);
        let deadline = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            poll.solicit_deadline
        };
        let window = deadline.since(now).mul_f64(0.7);
        for v in picked {
            let idx = {
                let poll = self
                    .peers
                    .au_mut(p, au.index())
                    .poll
                    .as_mut()
                    .expect("current");
                if poll.has_invitee(v) {
                    continue;
                }
                poll.add_invitee(v, false)
            };
            let at = now
                + self
                    .peers
                    .rng_mut(p)
                    .duration_between(Duration::SECOND, window);
            eng.schedule_at(at, move |w: &mut World, e| {
                w.send_invite(e, p, au, id, idx);
            });
        }
        if self.poll_is_current(p, au, id) {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
            poll.outer_launched = true;
        }
    }

    /// Solicitation window closed: evaluate (§4.3).
    fn begin_evaluation(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let _span = Span::enter(&self.profiler, "poll-evaluate");
        let now = eng.now();
        // Penalize invitees that committed but never delivered (§5.1).
        let deserters = {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
            if poll.phase != PollPhase::Soliciting {
                return;
            }
            poll.phase = PollPhase::Evaluating;
            poll.committed_non_voters()
        };
        let au_state = self.peers.au_mut(p, au.index());
        for d in deserters {
            au_state.known.penalize(d, now);
        }
        let n_votes = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            poll.votes.len()
        };
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
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let quorum = self.cfg.protocol.quorum;
        let frivolous_p = self.cfg.protocol.frivolous_repair_prob;
        let blocks = self.cfg.au_spec.blocks();

        let (inner_votes, my_damage) = {
            let au_state = self.peers.au(p, au.index());
            let poll = au_state.poll.as_ref().expect("current");
            (poll.inner_votes(), au_state.replica.snapshot())
        };

        let mut repair_plan: Vec<(u64, Identity)> = Vec::new();
        let mut unrepairable = 0u32;
        if inner_votes >= quorum {
            // Every damaged block of our replica meets landslide
            // disagreement (damaged content never matches anyone): fetch a
            // repair from a voter whose vote shows the block intact.
            let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
            let poll = au_state.poll.as_ref().expect("current");
            for block in my_damage {
                let candidates = poll.repair_candidates(block);
                match rng.choose(&candidates) {
                    Some(&v) => repair_plan.push((block, v)),
                    None => unrepairable += 1,
                }
            }
            // Frivolous repair (§4.3): keep voters honest about serving.
            if rng.chance(frivolous_p) && !poll.votes.is_empty() {
                let block = rng.below(blocks as usize) as u64;
                let pick = rng.below(poll.votes.len());
                let v = poll.votes[pick].voter;
                repair_plan.push((block, v));
            }
        }

        {
            let poll = self
                .peers
                .au_mut(p, au.index())
                .poll
                .as_mut()
                .expect("current");
            poll.phase = PollPhase::Repairing;
            poll.pending_repairs = repair_plan.len() as u32;
            poll.unrepairable = unrepairable;
        }
        let from = self.peers.node(p);
        if repair_plan.is_empty() {
            self.finalize_poll(eng, p, au, id);
            return;
        }
        for (block, voter) in repair_plan {
            // The one counted fact no event carries: a request planned from
            // a voter with no loyal node is never sent.
            if let Some(o) = self.obs.as_deref() {
                o.repairs_requested.inc();
            }
            let Some(to) = self.node_of(voter) else {
                let poll = self
                    .peers
                    .au_mut(p, au.index())
                    .poll
                    .as_mut()
                    .expect("current");
                poll.pending_repairs -= 1;
                continue;
            };
            self.send_message(
                eng,
                from,
                to,
                Message::RepairRequest {
                    au,
                    poll: id,
                    block,
                },
            );
        }
        let still_pending = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            poll.pending_repairs
        };
        if still_pending == 0 {
            self.finalize_poll(eng, p, au, id);
        }
    }

    /// Hard conclusion: if repairs (or evaluation) are stuck at the poll's
    /// scheduled end, finish anyway; the next poll starts on time
    /// (autonomous rate limitation).
    fn conclude_guard(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let phase = {
            let poll = self.peers.au(p, au.index()).poll.as_ref().expect("current");
            poll.phase
        };
        if phase != PollPhase::Finished {
            self.finalize_poll(eng, p, au, id);
        }
    }

    /// Concludes the poll (§4.3): receipts, grades, reference-list update,
    /// metrics, and the next poll's schedule.
    fn finalize_poll(&mut self, eng: &mut Eng, p: usize, au: AuId, id: PollId) {
        if !self.poll_is_current(p, au, id) {
            return;
        }
        let _span = Span::enter(&self.profiler, "poll-finalize");
        // Scalar copies instead of a whole-config clone; the one helper
        // that takes `&ProtocolConfig` gets it through a split borrow below.
        let quorum = self.cfg.protocol.quorum;
        let max_disagree = self.cfg.protocol.max_disagree;
        let grade_decay = self.cfg.protocol.grade_decay;
        let poll_interval = self.cfg.protocol.poll_interval;
        let now = eng.now();

        let poll = {
            let au_state = self.peers.au_mut(p, au.index());
            let mut poll = au_state.poll.take().expect("current");
            poll.phase = PollPhase::Finished;
            poll
        };

        let my_damage = self.peers.au(p, au.index()).replica.snapshot();
        let inner_votes = poll.inner_votes();
        let disagreeing = poll.inner_disagreements(&my_damage);
        let conclusion = if inner_votes < quorum {
            PollConclusion::Inquorate
        } else if disagreeing <= max_disagree {
            PollConclusion::Win
        } else if disagreeing >= inner_votes.saturating_sub(max_disagree) {
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
        {
            let au_state = self.peers.au_mut(p, au.index());
            for v in &poll.votes {
                au_state.known.raise(v.voter, now, grade_decay);
            }
        }

        // Receipts: the MBF byproduct of evaluation (§5.1); evaluation was
        // already charged, so receipts cost only the send.
        let from = self.peers.node(p);
        let voters: Vec<Identity> = poll.votes.iter().map(|v| v.voter).collect();
        for v in &voters {
            if let Some(to) = self.node_of(*v) {
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
            let World { cfg, peers, .. } = self;
            let (au_state, rng) = peers.au_and_rng_mut(p, au.index());
            au_state
                .reflist
                .conclude_poll(&decisive, &agreeing_outer, &cfg.protocol, rng);
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
        let jitter = self.cfg.protocol.interval_jitter;
        let next_start = poll.started + self.peers.rng_mut(p).jitter(poll_interval, jitter);
        let at = next_start.max(now + Duration::SECOND);
        eng.schedule_at(at, move |w: &mut World, e| {
            w.start_poll(e, p, au);
        });
    }

    // ------------------------------------------------------------------
    // Voter side.
    // ------------------------------------------------------------------

    /// An invitation arrived (§5.1 admission control, then commitment).
    #[allow(clippy::too_many_arguments)]
    fn voter_on_poll(
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

        // §9 adaptive acceptance (off by default): the busier we already
        // are, the likelier we refuse — raising the attacker's marginal
        // cost of increasing our busyness. The admission (and any intro
        // effort the poller spent) is already consumed.
        if self.cfg.protocol.adaptive_acceptance {
            let window = self.cfg.protocol.adaptive_window;
            let busy = self.peers.schedule(p).busy_within(now, window);
            let fraction = (busy / window).min(0.95);
            if self.peers.rng_mut(p).chance(fraction) {
                let from_node = self.peers.node(p);
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
            }
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

        let session = VoterSession::new(
            au,
            poller,
            from,
            reservation,
            vote_deadline,
            verdict == AdmissionVerdict::AdmittedIntroduced,
        );
        self.peers.voting_mut(p).insert(id, session);
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
        let timeout = self.cfg.protocol.proof_timeout;
        eng.schedule_in(timeout, move |w: &mut World, e| {
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
    fn voter_on_proof(
        &mut self,
        eng: &mut Eng,
        p: usize,
        id: PollId,
        au: AuId,
        remaining_valid: bool,
    ) {
        let now = eng.now();
        let compute_done = {
            let Some(s) = self.peers.voting_mut(p).get_mut(&id) else {
                return;
            };
            if s.stage != VoterStage::AwaitingProof || s.au != au {
                return;
            }
            if !remaining_valid {
                // Bogus remaining proof: abort, penalize.
                let res = s.reservation;
                let poller = s.poller;
                self.peers.schedule_mut(p).cancel(res);
                self.peers.voting_mut(p).remove(&id);
                self.peers.au_mut(p, au.index()).known.penalize(poller, now);
                return;
            }
            s.stage = VoterStage::ComputingVote;
            s.reservation.end.max(now)
        };
        eng.schedule_at(compute_done, move |w: &mut World, e| {
            w.voter_vote_computed(e, p, id);
        });
    }

    fn voter_vote_computed(&mut self, eng: &mut Eng, p: usize, id: PollId) {
        let (au, poller_node, vote_deadline) = {
            let Some(s) = self.peers.voting_mut(p).get_mut(&id) else {
                return;
            };
            if s.stage != VoterStage::ComputingVote {
                return;
            }
            s.stage = VoterStage::AwaitingReceipt;
            (s.au, s.poller_node, s.vote_deadline)
        };
        // Charge the vote-service compute (the reserved slot).
        let verify_remaining = self.balanced_effort(self.costs.remaining_verify);
        self.charge_loyal(p, Purpose::VerifyRemaining, verify_remaining);
        self.charge_loyal(p, Purpose::ComputeVote, self.costs.au_hash);
        let gen_proof = self.balanced_effort(self.costs.vote_proof_gen);
        self.charge_loyal(p, Purpose::GenVoteProof, gen_proof);

        let (damage, nominations, from, me) = {
            let from = self.peers.node(p);
            let me = self.peers.identity(p);
            let compromised = self.peers.is_compromised(p);
            let nominations_k = self.cfg.protocol.nominations;
            let (au_state, rng) = self.peers.au_and_rng_mut(p, au.index());
            // A compromised peer votes from the lying shadow snapshot —
            // hiding its corruption and volunteering as a repair candidate
            // for blocks it will then poison.
            let damage = match &au_state.shadow {
                Some(shadow) if compromised => shadow.snapshot(),
                _ => au_state.replica.snapshot(),
            };
            let noms = au_state.reflist.nominate(nominations_k, rng);
            (damage, noms, from, me)
        };
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
        let slack = self.cfg.protocol.receipt_slack + self.cfg.protocol.poll_interval.mul_f64(0.35);
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

    fn voter_on_receipt(&mut self, eng: &mut Eng, p: usize, id: PollId, valid: bool) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_storage::AuSpec;

    /// A small, fast world for end-to-end protocol tests.
    pub(crate) fn small_config(seed: u64) -> WorldConfig {
        let au_spec = AuSpec {
            size_bytes: 50_000_000, // 50 MB AUs hash in ~1.7 s
            block_bytes: 1_000_000,
        };
        let mut cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            au_spec,
            mtbf_years: 1.0,
            seed,
            ..WorldConfig::default()
        };
        cfg.cost = CostModel::default().with_au_bytes(au_spec.size_bytes);
        cfg.protocol.poll_interval = Duration::from_days(30);
        cfg.protocol.grade_decay = Duration::from_days(60);
        cfg.validate().expect("valid");
        cfg
    }

    fn run_world(cfg: WorldConfig, length: Duration) -> (World, SimTime) {
        let mut world = World::new(cfg);
        let mut eng = Eng::new();
        world.start(&mut eng);
        let end = SimTime::ZERO + length;
        eng.run_until(&mut world, end);
        (world, end)
    }

    #[test]
    fn polls_succeed_absent_attack() {
        let (world, end) = run_world(small_config(42), Duration::from_days(180));
        let s = world.metrics.summarize(end);
        assert!(
            s.successful_polls > 100,
            "expected many successful polls, got {} (failed {})",
            s.successful_polls,
            s.failed_polls
        );
        let rate = s.successful_polls as f64 / (s.successful_polls + s.failed_polls) as f64;
        assert!(rate > 0.9, "success rate {rate}");
        assert_eq!(s.alarms, 0, "honest network must not alarm");
    }

    #[test]
    fn damage_gets_repaired() {
        let (world, end) = run_world(small_config(7), Duration::from_days(360));
        let s = world.metrics.summarize(end);
        // MTBF 1 year/disk over 2 AUs at 30-day polls: damage must occur...
        let damaged_now = world.peers.total_damaged();
        // ...and be repaired promptly: the steady-state damaged fraction
        // should be near rate * mean-detection-delay, far below 10%.
        assert!(
            s.access_failure_probability < 0.05,
            "failure probability {}",
            s.access_failure_probability
        );
        assert!(
            damaged_now <= 4,
            "damage should not accumulate: {damaged_now} damaged now"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (wa, end) = run_world(small_config(5), Duration::from_days(120));
        let (wb, _) = run_world(small_config(5), Duration::from_days(120));
        let sa = wa.metrics.summarize(end);
        let sb = wb.metrics.summarize(end);
        assert_eq!(sa.successful_polls, sb.successful_polls);
        assert_eq!(sa.failed_polls, sb.failed_polls);
        assert!((sa.loyal_effort_secs - sb.loyal_effort_secs).abs() < 1e-9);
        assert!((sa.access_failure_probability - sb.access_failure_probability).abs() < 1e-15);
    }

    #[test]
    fn different_seeds_differ() {
        let (wa, end) = run_world(small_config(1), Duration::from_days(120));
        let (wb, _) = run_world(small_config(2), Duration::from_days(120));
        let sa = wa.metrics.summarize(end);
        let sb = wb.metrics.summarize(end);
        assert!(
            sa.loyal_effort_secs != sb.loyal_effort_secs
                || sa.successful_polls != sb.successful_polls
        );
    }

    #[test]
    fn pipe_stopped_world_makes_no_progress() {
        let cfg = small_config(9);
        let mut world = World::new(cfg);
        let mut eng = Eng::new();
        world.start(&mut eng);
        // Stop every peer for the whole run.
        for i in 0..world.n_loyal() {
            let node = world.peers.node(i);
            world.net.set_stopped(node, true);
        }
        let end = SimTime::ZERO + Duration::from_days(120);
        eng.run_until(&mut world, end);
        let s = world.metrics.summarize(end);
        assert_eq!(s.successful_polls, 0, "no communication, no polls");
        assert!(s.failed_polls > 0, "polls were attempted and failed");
    }

    #[test]
    fn effort_is_charged() {
        let (world, end) = run_world(small_config(11), Duration::from_days(90));
        let s = world.metrics.summarize(end);
        assert!(s.loyal_effort_secs > 0.0);
        assert_eq!(s.adversary_effort_secs, 0.0);
        // Every peer should have spent something (all poll and vote).
        for p in 0..world.peers.len() {
            assert!(
                world.peers.ledger(p).total_secs() > 0.0,
                "peer {:?} idle",
                world.peers.identity(p)
            );
        }
    }

    #[test]
    fn minions_and_poll_ids() {
        let mut world = World::new(small_config(13));
        let minions = world.add_minions(3);
        assert_eq!(minions.len(), 3);
        for m in &minions {
            assert!(m.index() >= world.n_loyal());
        }
        let a = world.alloc_poll_id();
        let b = world.alloc_poll_id();
        assert_ne!(a, b);
    }

    #[test]
    fn compromise_and_cure_transitions() {
        let mut world = World::new(small_config(21));
        let mut eng = Eng::new();
        assert_eq!(world.peers.compromised_count(), 0);

        assert!(world.compromise_peer(&mut eng, 3, 2));
        assert!(world.peers.is_compromised(3));
        // Double takeover is a no-op: budget accounting stays exact.
        assert!(!world.compromise_peer(&mut eng, 3, 2));
        assert_eq!(world.peers.compromised_count(), 1);
        // Shadows snapshot the pre-corruption view; the real replicas are
        // corrupted underneath them.
        assert!(world.peers.aus(3).iter().all(|a| a.shadow.is_some()));
        assert!(
            world.peers.aus(3).iter().any(|a| !a.replica.is_intact()),
            "takeover must corrupt"
        );
        assert!(world
            .peers
            .aus(3)
            .iter()
            .all(|a| a.shadow.as_ref().unwrap().is_intact()));

        assert!(world.cure_peer(&mut eng, 3));
        assert!(!world.peers.is_compromised(3));
        assert!(!world.cure_peer(&mut eng, 3));
        assert_eq!(world.peers.compromised_count(), 0);
        // Cure ≠ heal: shadows are gone but the damage persists.
        assert!(world.peers.aus(3).iter().all(|a| a.shadow.is_none()));
        assert!(world.peers.damaged_replicas(3) > 0);
    }

    #[test]
    fn compromised_votes_lie_and_repairs_poison() {
        // Drive a full run with a statically compromised peer set and
        // check the poison plumbing end to end via the metric handles.
        let cfg = small_config(23);
        let mut world = World::new(cfg);
        let obs = CoreObs::register(&mut lockss_obs::RegistryBuilder::new());
        world.set_obs(obs.clone());
        let mut eng = Eng::new();
        world.start(&mut eng);
        let taken = (0..6)
            .filter(|&p| world.compromise_peer(&mut eng, p, 2))
            .count();
        assert_eq!(taken, 6);
        let end = SimTime::ZERO + Duration::from_days(240);
        eng.run_until(&mut world, end);
        assert_eq!(world.peers.compromised_count(), 6);
        assert_eq!(obs.compromises.get(), 6);
        assert!(
            obs.poisoned_repairs.get() > 0,
            "compromised repair candidates must have poisoned at least one block"
        );
        // Poison keeps the compromised peers' corruption in place: damage
        // accumulates instead of healing away.
        assert!(world.peers.total_damaged() > 0);
    }

    /// A 10k-peer world builds quickly and stays sparse: construction is
    /// O(population × reference-list size), and the founding-population
    /// reputation rule materializes zero entries.
    #[test]
    fn ten_thousand_peer_world_builds_sparse() {
        let mut cfg = WorldConfig {
            n_peers: 10_000,
            n_aus: 1,
            seed: 3,
            ..WorldConfig::default()
        };
        cfg.link_mix = Some([0.6, 0.3, 0.1]);
        let world = World::new(cfg);
        assert_eq!(world.peers.len(), 10_000);
        let occ = world.peers.occupancy();
        assert_eq!(occ.known_entries, 0, "reputation must start lazy");
        assert_eq!(
            occ.reflist_entries,
            10_000 * ProtocolConfig::default().reflist_initial
        );
        // The steady-state proxy still holds: a founding peer sees any
        // other founder as known-at-even.
        let standing = world.peers.au(0, 0).known.standing(
            Identity::loyal(9_999),
            SimTime::ZERO,
            world.cfg.protocol.grade_decay,
        );
        assert_eq!(
            standing,
            crate::reputation::Standing::Known(Grade::Even),
            "founding population must read known-at-even"
        );
    }

    use crate::config::ProtocolConfig;
}
