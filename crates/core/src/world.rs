//! The simulated world: peers, network, storage damage, metrics, adversary.
//!
//! [`World`] owns the run's state and the events that are not a poll step:
//! construction, tracing, effort charging, storage damage, compromise and
//! message delivery. The protocol machines are `impl World` blocks beside
//! their state: the poller in [`crate::poller`], the voter in
//! [`crate::voter`], dynamic membership in [`crate::churn`]. Peer
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
use crate::config::{ProtocolConfig, WorldConfig};
use crate::msg::Message;
use crate::obs::CoreObs;
use crate::peer::{column_bytes, AuState, PeerTable, TableOccupancy};
use crate::reflist::RefList;
use crate::reputation::Grade;
use crate::trace::{Label, TraceEvent, TraceSink};
use crate::types::{Identity, PollId};

/// Engine alias: all events run against the world.
pub type Eng = Engine<World>;

/// The complete simulation state.
pub struct World {
    /// The run's configuration. Treat as immutable once the world is
    /// built: the derived-cost table below is computed from
    /// `cfg.au_spec` at construction, so resizing the AU afterwards would
    /// silently desynchronize effort charges from wire sizes. Configure
    /// before `World::new`, as every existing caller does.
    pub cfg: WorldConfig,
    /// The paper's cost calibration evaluated at `cfg.au_spec`'s size at
    /// construction (the accessors re-derive float identities per call;
    /// the protocol reads them on every invite/ack/vote).
    pub(crate) costs: CostTable,
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
    /// What observes the run: trace sink, metric handles and profiler.
    /// `None` while none is installed, so an untraced run pays one branch
    /// per emission site (see [`World::trace`]).
    pub(crate) taps: Option<Box<Taps>>,
    next_poll_id: u64,
    n_loyal: usize,
    /// Loyal peer index by network node, [`NOT_LOYAL`] for the adversary's
    /// nodes; nodes past the end are not loyal either. Read on every
    /// message delivery, so a dense column rather than a hash probe.
    node_peer: Vec<u32>,
}

/// A [`World::node_peer`] slot of a node no loyal peer lives on.
const NOT_LOYAL: u32 = u32::MAX;

/// The out-of-band taps a [`World`] carries. They observe the run and never
/// feed it, so they are not part of its state.
#[derive(Default)]
pub(crate) struct Taps {
    /// The installed trace sink, if this run is being traced.
    sink: Option<Box<dyn TraceSink>>,
    /// Metric handles (see [`crate::obs`]), counted from the emitted
    /// events.
    pub(crate) obs: Option<CoreObs>,
    /// Profiler shared with the runner, for spans around poll evaluation:
    /// wall-clock only, never read by the protocol.
    profiler: Option<SharedProfiler>,
}

impl Taps {
    /// Opens `name` on the profiler among `taps`, if there is one.
    #[inline]
    pub(crate) fn span(taps: &Option<Box<Taps>>, name: &'static str) -> Option<Span> {
        Span::enter(taps.as_ref().map_or(&None, |t| &t.profiler), name)
    }

    fn emit(&mut self, eng: &mut Eng, event: &TraceEvent) {
        if let Some(obs) = &self.obs {
            obs.observe(event);
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(eng.now(), eng.executed(), event);
            if sink.wants_stop() {
                eng.request_stop();
            }
        }
    }
}

impl World {
    /// Builds the world: loyal peers with sampled links, pristine replicas,
    /// seeded reference lists and reputation (a steady-state proxy:
    /// everyone starts known-at-even; see ARCHITECTURE.md, "Memory
    /// model").
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
            let friends = rng.sample_map(n - 1, ProtocolConfig::FRIENDS, ident);
            let mut per_au = Vec::with_capacity(cfg.n_aus);
            for _ in 0..cfg.n_aus {
                let initial = rng.sample_map(n - 1, ProtocolConfig::REFLIST_INITIAL, ident);
                let mut au = AuState::new(RefList::new(friends.clone(), initial));
                au.known
                    .assume_population(n as u32, me, Grade::Even, SimTime::ZERO);
                per_au.push(au);
            }
            peers.push(*node, me, per_au, rng.fork());
        }

        let metrics = RunMetrics::new(cfg.total_replicas(), SimTime::ZERO);
        let mut node_peer = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            set_node_peer(&mut node_peer, *node, i);
        }
        World {
            costs: CostModel::default().table(cfg.au_spec.size_bytes),
            cfg,
            net,
            peers,
            metrics,
            rng,
            adversary: None,
            adversary_channel: 0,
            taps: None,
            next_poll_id: 0,
            n_loyal: nodes.len(),
            node_peer,
        }
    }

    /// Number of loyal peers.
    pub fn n_loyal(&self) -> usize {
        self.n_loyal
    }

    /// Registers a late-joining loyal peer's node (see `churn`), extending
    /// the node column to reach it.
    pub(crate) fn bump_loyal_count(&mut self) {
        let index = self.peers.len() - 1;
        set_node_peer(&mut self.node_peer, self.peers.node(index), index);
        self.n_loyal += 1;
    }

    /// The peer table's heap occupancy, with the node-to-peer column the
    /// world keeps beside it, for memory reports.
    pub fn occupancy(&self) -> TableOccupancy {
        let mut occ = self.peers.occupancy();
        occ.peer_column_bytes += column_bytes(&self.node_peer);
        occ
    }

    /// The loyal peer living on `node`, if any.
    #[inline]
    pub fn loyal_peer_of_node(&self, node: NodeId) -> Option<usize> {
        match self.node_peer.get(node.index()) {
            Some(&p) if p != NOT_LOYAL => Some(p as usize),
            _ => None,
        }
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

    /// The taps, installed empty on first use.
    fn taps(&mut self) -> &mut Taps {
        self.taps.get_or_insert_with(Box::default)
    }

    /// Installs a trace sink: every causal event of the run from here on is
    /// delivered to it (see [`crate::trace`]). Install before
    /// [`World::start`] to capture the complete stream.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.taps().sink = Some(sink);
    }

    /// Removes and returns the installed trace sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.taps.as_mut()?.sink.take()
    }

    /// Installs metric handles: the poll lifecycle, admission verdicts,
    /// and repair traffic are counted from here on. Install before
    /// [`World::start`] for complete totals.
    pub fn set_obs(&mut self, obs: CoreObs) {
        self.taps().obs = Some(obs);
    }

    /// Shares a profiler with the world; poll evaluation opens spans on
    /// it. The world only ever *writes* wall-clock timings here, so
    /// simulation behaviour is independent of the profiler's presence.
    pub fn set_profiler(&mut self, profiler: SharedProfiler) {
        self.taps().profiler = Some(profiler);
    }

    /// States one fact of the run: the only emission point of the event
    /// vocabulary. The event is built only while taps are installed, so an
    /// untraced run pays one branch here; the handles count it
    /// ([`CoreObs::observe`]), then the sink records it, and a sink that
    /// asks to stop (replay divergence) aborts the engine's run loop.
    #[inline]
    pub(crate) fn trace(&mut self, eng: &mut Eng, make: impl FnOnce() -> TraceEvent) {
        if let Some(taps) = self.taps.as_deref_mut() {
            taps.emit(eng, &make());
        }
    }

    /// Declares a provenance-tagged adversary action in the trace (a no-op
    /// untraced). Strategies call this at their decision points — a
    /// stoppage cycle starting, a flood wave launching, a sybil escalation
    /// step — so a trace names *which* adversary move caused what follows.
    pub fn note_adversary_action(&mut self, eng: &mut Eng, label: Label, magnitude: u64) {
        let channel = self.adversary_channel;
        self.trace(eng, || TraceEvent::AdversaryAction {
            channel,
            label,
            magnitude,
        });
    }

    /// Records the start of a named attack phase in the run metrics (used
    /// by phased composite adversaries; see
    /// [`lockss_metrics::summary::RunMetrics::mark_phase`]).
    pub fn mark_phase(&mut self, label: Label, eng: &mut Eng) {
        self.metrics.mark_phase(label.label(), eng.now());
        self.trace(eng, || TraceEvent::PhaseMark { label });
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

    /// The derived costs, computed for `cfg.au_spec` at construction.
    pub fn costs(&self) -> &CostTable {
        &self.costs
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
        let bytes = msg.wire_bytes(&self.cfg.au_spec);
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
    pub(crate) fn node_of(&self, id: Identity) -> Option<NodeId> {
        id.loyal_index().map(|i| self.peers.node(i as usize))
    }
}

/// Records that loyal peer `index` lives on `node`, growing the column with
/// [`NOT_LOYAL`] slots up to it.
fn set_node_peer(column: &mut Vec<u32>, node: NodeId, index: usize) {
    if column.len() <= node.index() {
        column.resize(node.index() + 1, NOT_LOYAL);
    }
    column[node.index()] = u32::try_from(index).expect("loyal peer index fits in u32");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_storage::AuSpec;

    /// A small, fast world for end-to-end protocol tests.
    pub(crate) fn small_config(seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            au_spec: AuSpec {
                size_bytes: 50_000_000, // 50 MB AUs hash in ~1.7 s
            },
            mtbf_years: 1.0,
            seed,
            ..WorldConfig::default()
        };
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
        assert!(world.peers.aus(3).iter().any(|a| !a.replica.is_intact()));
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
            10_000 * ProtocolConfig::REFLIST_INITIAL
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
}
