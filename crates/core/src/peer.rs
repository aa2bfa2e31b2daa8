//! Per-peer state, stored struct-of-arrays.
//!
//! [`PeerTable`] holds every loyal peer's hot state in parallel columns
//! keyed by the peer index, with per-AU protocol state flattened
//! peer-major into one contiguous vector. Compared with the former
//! `Vec<Peer>`-of-structs layout this removes one `Vec` allocation per
//! peer, keeps the fields a code path actually touches adjacent in memory,
//! and — because the columns are separate borrows — replaces the
//! `&mut peer.x / &mut peer.y` split-borrow gymnastics of the poll path
//! with plain method calls. The columns themselves are a handful of large
//! flat allocations; what hangs off them per peer or per cell is also flat
//! (one hash table of open voter sessions per peer, sorted arrays in each
//! cell's admission state, a hash table in its known-peers list), never a
//! tree of heap nodes.

use lockss_effort::EffortLedger;
use lockss_net::NodeId;
use lockss_sim::{FxHashMap, SimRng};
use lockss_storage::Replica;

use crate::admission::AdmissionControl;
use crate::poller::PollState;
use crate::reflist::RefList;
use crate::reputation::KnownPeers;
use crate::schedule::TaskSchedule;
use crate::types::Identity;
use crate::voter::{VoterKey, VoterSession, VoterStage};

/// Per-AU state of one peer.
#[derive(Clone, Debug)]
pub struct AuState {
    pub replica: Replica,
    /// While the peer is compromised, the lying view it votes from: a
    /// snapshot of the replica taken at compromise time, *before* the
    /// adversary corrupted it. `None` whenever the peer is loyal.
    pub shadow: Option<Replica>,
    pub known: KnownPeers,
    pub admission: AdmissionControl,
    pub reflist: RefList,
    /// The in-flight poll this peer is running on this AU, if any.
    pub poll: Option<PollState>,
}

impl AuState {
    /// Fresh per-AU state with the given reference list.
    pub fn new(reflist: RefList) -> AuState {
        AuState {
            replica: Replica::pristine(),
            shadow: None,
            known: KnownPeers::new(),
            admission: AdmissionControl::new(),
            reflist,
            poll: None,
        }
    }
}

/// Heap occupancy of a [`PeerTable`], for `--mem-report` style diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableOccupancy {
    /// Peers in the table.
    pub peers: usize,
    /// AUs per peer.
    pub aus_per_peer: usize,
    /// Materialized reputation entries across all (peer, AU) cells (the
    /// lazy founding-population default adds none).
    pub known_entries: usize,
    /// Reference-list members across all cells.
    pub reflist_entries: usize,
    /// Polls currently in flight.
    pub live_polls: usize,
    /// Voter-side commitments currently open.
    pub voter_sessions: usize,
    /// Last-admission stamps across all cells (the admission filter's
    /// per-identity rate limit; one per identity ever admitted by a cell).
    pub last_admission_entries: usize,
    /// Outstanding introductions across all cells (capped per cell).
    pub introductions: usize,
}

/// All loyal peers, struct-of-arrays.
///
/// Columns are indexed by the peer's index (its handle everywhere in the
/// protocol layer); per-AU state lives flattened at `peer * n_aus + au`.
pub struct PeerTable {
    n_aus: usize,
    node: Vec<NodeId>,
    identity: Vec<Identity>,
    /// Single-CPU commitment calendar (shared across all AUs — the §6.3
    /// resource contention between concurrently preserved AUs).
    schedule: Vec<TaskSchedule>,
    ledger: Vec<EffortLedger>,
    /// Active voter commitments, keyed by poll. Looked up, inserted and
    /// removed by key only — never iterated, so the table's order cannot
    /// reach a run.
    voting: Vec<FxHashMap<VoterKey, VoterSession>>,
    /// Each peer's private randomness stream.
    rng: Vec<SimRng>,
    /// True while the mobile adversary occupies this peer: it votes from
    /// the corrupted shadow replicas and serves poisoned repairs. Flipped
    /// only by [`crate::world::World::compromise_peer`] /
    /// [`crate::world::World::cure_peer`].
    compromised: Vec<bool>,
    /// Flattened per-AU state, peer-major.
    au: Vec<AuState>,
}

impl PeerTable {
    /// An empty table for worlds with `n_aus` AUs per peer.
    pub fn new(n_aus: usize) -> PeerTable {
        PeerTable::with_capacity(0, n_aus)
    }

    /// An empty table pre-sized for `peers` peers — one allocation per
    /// column instead of a doubling cascade when building 10k+ worlds.
    pub fn with_capacity(peers: usize, n_aus: usize) -> PeerTable {
        PeerTable {
            n_aus,
            node: Vec::with_capacity(peers),
            identity: Vec::with_capacity(peers),
            schedule: Vec::with_capacity(peers),
            ledger: Vec::with_capacity(peers),
            voting: Vec::with_capacity(peers),
            rng: Vec::with_capacity(peers),
            compromised: Vec::with_capacity(peers),
            au: Vec::with_capacity(peers * n_aus),
        }
    }

    /// Appends a peer row; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `per_au` does not hold exactly `n_aus` cells.
    pub fn push(
        &mut self,
        node: NodeId,
        identity: Identity,
        per_au: Vec<AuState>,
        rng: SimRng,
    ) -> usize {
        assert_eq!(per_au.len(), self.n_aus, "per-AU cells must match n_aus");
        let index = self.node.len();
        self.node.push(node);
        self.identity.push(identity);
        self.schedule.push(TaskSchedule::new());
        self.ledger.push(EffortLedger::new());
        self.voting.push(FxHashMap::default());
        self.rng.push(rng);
        self.compromised.push(false);
        self.au.extend(per_au);
        index
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True if the table holds no peers.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// AUs per peer.
    pub fn n_aus(&self) -> usize {
        self.n_aus
    }

    #[inline]
    fn cell(&self, p: usize, au: usize) -> usize {
        debug_assert!(au < self.n_aus, "AU index {au} out of range");
        p * self.n_aus + au
    }

    /// The peer's network node.
    #[inline]
    pub fn node(&self, p: usize) -> NodeId {
        self.node[p]
    }

    /// The peer's protocol identity.
    #[inline]
    pub fn identity(&self, p: usize) -> Identity {
        self.identity[p]
    }

    /// All identities, by peer index.
    pub fn identities(&self) -> &[Identity] {
        &self.identity
    }

    /// The peer's state for one AU.
    #[inline]
    pub fn au(&self, p: usize, au: usize) -> &AuState {
        &self.au[self.cell(p, au)]
    }

    /// Mutable per-AU state.
    #[inline]
    pub fn au_mut(&mut self, p: usize, au: usize) -> &mut AuState {
        let i = self.cell(p, au);
        &mut self.au[i]
    }

    /// All of one peer's per-AU cells.
    pub fn aus(&self, p: usize) -> &[AuState] {
        &self.au[p * self.n_aus..(p + 1) * self.n_aus]
    }

    /// All of one peer's per-AU cells, mutably.
    pub fn aus_mut(&mut self, p: usize) -> &mut [AuState] {
        let (lo, hi) = (p * self.n_aus, (p + 1) * self.n_aus);
        &mut self.au[lo..hi]
    }

    /// One AU cell and the peer's RNG, borrowed together — the poll path's
    /// recurring pattern (sample from the reference list with the peer's
    /// own stream), a plain disjoint-column borrow here.
    #[inline]
    pub fn au_and_rng_mut(&mut self, p: usize, au: usize) -> (&mut AuState, &mut SimRng) {
        let i = self.cell(p, au);
        (&mut self.au[i], &mut self.rng[p])
    }

    /// The peer's CPU commitment calendar.
    pub fn schedule(&self, p: usize) -> &TaskSchedule {
        &self.schedule[p]
    }

    /// Mutable CPU calendar.
    pub fn schedule_mut(&mut self, p: usize) -> &mut TaskSchedule {
        &mut self.schedule[p]
    }

    /// All CPU calendars, by peer index.
    pub fn schedules(&self) -> &[TaskSchedule] {
        &self.schedule
    }

    /// The peer's effort ledger.
    pub fn ledger(&self, p: usize) -> &EffortLedger {
        &self.ledger[p]
    }

    /// Mutable effort ledger.
    pub fn ledger_mut(&mut self, p: usize) -> &mut EffortLedger {
        &mut self.ledger[p]
    }

    /// All effort ledgers, by peer index.
    pub fn ledgers(&self) -> &[EffortLedger] {
        &self.ledger
    }

    /// The peer's open voter commitments.
    pub fn voting(&self, p: usize) -> &FxHashMap<VoterKey, VoterSession> {
        &self.voting[p]
    }

    /// Mutable voter commitments.
    pub fn voting_mut(&mut self, p: usize) -> &mut FxHashMap<VoterKey, VoterSession> {
        &mut self.voting[p]
    }

    /// Closes the peer's commitment to `poll` if it has reached `stage`,
    /// returning the session; anything else is left as it is.
    pub fn close_voter_session(
        &mut self,
        p: usize,
        poll: VoterKey,
        stage: VoterStage,
    ) -> Option<VoterSession> {
        // Most timers find their session already closed; a plain lookup,
        // unlike `entry`, never grows the table on a miss.
        let voting = &mut self.voting[p];
        if voting.get(&poll)?.stage != stage {
            return None;
        }
        voting.remove(&poll)
    }

    /// The peer's private randomness stream.
    pub fn rng_mut(&mut self, p: usize) -> &mut SimRng {
        &mut self.rng[p]
    }

    /// True while the mobile adversary occupies this peer.
    #[inline]
    pub fn is_compromised(&self, p: usize) -> bool {
        self.compromised[p]
    }

    /// Flips the compromise flag; the world's transition methods own the
    /// shadow-replica and metrics bookkeeping around this.
    pub(crate) fn set_compromised(&mut self, p: usize, value: bool) {
        self.compromised[p] = value;
    }

    /// Peers currently compromised.
    pub fn compromised_count(&self) -> usize {
        self.compromised.iter().filter(|c| **c).count()
    }

    /// Number of this peer's replicas currently damaged.
    pub fn damaged_replicas(&self, p: usize) -> usize {
        self.aus(p)
            .iter()
            .filter(|a| !a.replica.is_intact())
            .count()
    }

    /// Damaged replicas across the whole population.
    pub fn total_damaged(&self) -> usize {
        self.au.iter().filter(|a| !a.replica.is_intact()).count()
    }

    /// Current heap occupancy, for memory reports.
    pub fn occupancy(&self) -> TableOccupancy {
        let mut occ = TableOccupancy {
            peers: self.len(),
            aus_per_peer: self.n_aus,
            ..TableOccupancy::default()
        };
        for cell in &self.au {
            occ.known_entries += cell.known.len();
            occ.reflist_entries += cell.reflist.len();
            occ.live_polls += usize::from(cell.poll.is_some());
            occ.last_admission_entries += cell.admission.last_admission_entries();
            occ.introductions += cell.admission.outstanding_introductions();
        }
        occ.voter_sessions = self.voting.iter().map(FxHashMap::len).sum();
        occ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_storage::AuId;

    fn table_with_two_aus() -> PeerTable {
        let mut t = PeerTable::new(2);
        for i in 0..3u32 {
            let per_au = vec![
                AuState::new(RefList::new(vec![], vec![])),
                AuState::new(RefList::new(vec![], vec![])),
            ];
            let p = t.push(
                NodeId(i),
                Identity::loyal(i),
                per_au,
                SimRng::seed_from_u64(i as u64),
            );
            assert_eq!(p, i as usize);
        }
        t
    }

    #[test]
    fn accessors_and_damage_counts() {
        let mut t = table_with_two_aus();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.n_aus(), 2);
        assert_eq!(t.node(1), NodeId(1));
        assert_eq!(t.identity(2), Identity::loyal(2));
        assert_eq!(t.damaged_replicas(1), 0);
        t.au_mut(1, AuId(1).index()).replica.damage(3);
        assert_eq!(t.damaged_replicas(1), 1);
        assert_eq!(t.damaged_replicas(0), 0);
        assert_eq!(t.total_damaged(), 1);
        assert!(!t.au(1, 1).replica.is_intact());
        assert!(t.au(1, 0).replica.is_intact());
        assert_eq!(t.aus(1).len(), 2);
    }

    #[test]
    fn au_cells_are_flattened_per_peer() {
        let mut t = table_with_two_aus();
        t.au_mut(0, 1).replica.damage(1);
        t.au_mut(2, 0).replica.damage(2);
        // Damaging one peer's cell never leaks into a neighbour's slice.
        assert!(t.aus(1).iter().all(|a| a.replica.is_intact()));
        assert_eq!(t.total_damaged(), 2);
    }

    #[test]
    fn split_borrow_of_au_and_rng() {
        let mut t = table_with_two_aus();
        let (au_state, rng) = t.au_and_rng_mut(1, 0);
        // Both halves usable simultaneously: sample from the cell's
        // reference list with the peer's own stream.
        let picks = au_state.reflist.sample(2, rng);
        assert!(picks.is_empty(), "empty reflist samples nothing");
    }

    #[test]
    fn occupancy_reflects_state() {
        let mut t = table_with_two_aus();
        assert_eq!(t.occupancy().peers, 3);
        assert_eq!(t.occupancy().live_polls, 0);
        t.au_mut(0, 0)
            .reflist
            .insert(Identity::loyal(9), usize::MAX);
        let occ = t.occupancy();
        assert_eq!(occ.reflist_entries, 1);
        assert_eq!(occ.aus_per_peer, 2);
        assert_eq!(occ.known_entries, 0);
    }

    #[test]
    fn compromise_flag_starts_false_and_flips() {
        let mut t = table_with_two_aus();
        assert_eq!(t.compromised_count(), 0);
        assert!(!t.is_compromised(1));
        t.set_compromised(1, true);
        assert!(t.is_compromised(1));
        assert_eq!(t.compromised_count(), 1);
        t.set_compromised(1, false);
        assert_eq!(t.compromised_count(), 0);
        // Shadow replicas start absent on every cell.
        assert!(t.aus(0).iter().all(|a| a.shadow.is_none()));
    }

    #[test]
    #[should_panic(expected = "per-AU cells must match")]
    fn mismatched_au_count_panics() {
        let mut t = PeerTable::new(2);
        t.push(
            NodeId(0),
            Identity::loyal(0),
            vec![AuState::new(RefList::new(vec![], vec![]))],
            SimRng::seed_from_u64(0),
        );
    }
}
