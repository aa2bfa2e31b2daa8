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
//! tree of heap nodes. A known-peers entry packs its grade into its stamp,
//! so each of that table's buckets is 16 bytes. A peer's RNG is its
//! 8-byte stream state, and a cell's admission stamps are only those a
//! refractory period has not yet expired, so neither column grows with the
//! length of a run. [`PeerTable::occupancy`] reports each table's entries
//! and approximate bytes for `--mem-report`: the cells themselves, the
//! hash tables by bucket with their control bytes, and the schedule and
//! ledger columns.

use lockss_effort::EffortLedger;
use lockss_net::NodeId;
use lockss_sim::{fxmap, FxHashMap, SimRng};
use lockss_storage::{AuId, Replica};

use crate::admission::AdmissionControl;
use crate::poller::PollState;
use crate::reflist::RefList;
use crate::reputation::KnownPeers;
use crate::schedule::TaskSchedule;
use crate::types::{Identity, PollId};
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
    /// per-identity rate limit; one per identity a cell admitted within
    /// about a refractory period).
    pub last_admission_entries: usize,
    /// Outstanding introductions across all cells (capped per cell).
    pub introductions: usize,
    /// Approximate heap bytes (buckets × entry size plus control bytes)
    /// of the reputation entries across all cells.
    pub known_bytes: usize,
    /// Approximate heap bytes of the last-admission stamps and
    /// introductions across all cells.
    pub admission_bytes: usize,
    /// Approximate heap bytes of the reference and friends lists.
    pub reflist_bytes: usize,
    /// Approximate heap bytes the live polls hold.
    pub poll_bytes: usize,
    /// Approximate heap bytes (buckets × entry size plus control bytes)
    /// of the per-peer voter-session tables.
    pub voter_session_bytes: usize,
    /// The hash-table control bytes counted in `known_bytes` and
    /// `voter_session_bytes`.
    pub hash_control_bytes: usize,
    /// Bytes of the per-peer RNG column.
    pub rng_bytes: usize,
    /// Bytes of the remaining per-peer columns: node, identity, compromise
    /// flag and the voter tables' headers (their buckets are in
    /// `voter_session_bytes`), plus the world's node-to-peer column when
    /// read through [`crate::world::World::occupancy`].
    pub peer_column_bytes: usize,
    /// Bytes of the flattened per-AU cells themselves, not counting what
    /// they point to.
    pub cell_bytes: usize,
    /// Bytes of the schedule and effort-ledger columns, with each
    /// schedule's committed intervals.
    pub schedule_ledger_bytes: usize,
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

    /// The live poll of `(p, au)` if it is poll `id`. Every poller step is
    /// a timer or message that may arrive after its poll concluded or was
    /// replaced; this is how each one finds its poll, or learns it is gone.
    #[inline]
    pub fn live_poll(&self, p: usize, au: AuId, id: PollId) -> Option<&PollState> {
        self.au(p, au.index())
            .poll
            .as_ref()
            .filter(|poll| poll.id == id)
    }

    /// Mutable [`PeerTable::live_poll`].
    #[inline]
    pub fn live_poll_mut(&mut self, p: usize, au: AuId, id: PollId) -> Option<&mut PollState> {
        self.au_mut(p, au.index())
            .poll
            .as_mut()
            .filter(|poll| poll.id == id)
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

    /// Mutable CPU calendar.
    pub fn schedule_mut(&mut self, p: usize) -> &mut TaskSchedule {
        &mut self.schedule[p]
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

    /// The peer's open commitment to `poll`, mutably.
    pub fn voter_session_mut(&mut self, p: usize, poll: VoterKey) -> Option<&mut VoterSession> {
        self.voting[p].get_mut(&poll)
    }

    /// Records the peer's new commitment to `poll`.
    pub fn open_voter_session(&mut self, p: usize, poll: VoterKey, session: VoterSession) {
        self.voting[p].insert(poll, session);
    }

    /// Closes the peer's commitment to `poll` if it has reached `stage`,
    /// returning the session; anything else is left as it is.
    ///
    /// This is the one way a session leaves its table, and the table gives
    /// back buckets here: the hash table never shrinks by itself, so a peer
    /// that once held many sessions would otherwise keep their buckets for
    /// the rest of the run. Once no more than a quarter of the table's
    /// capacity is in use, it is rehashed to twice its length, never below
    /// its 16-bucket size. The gap between the two factors keeps a peer that
    /// alternates opening and closing at the boundary from rehashing on
    /// every call.
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
        let session = voting.remove(&poll);
        let len = voting.len();
        if len * 4 <= voting.capacity() && voting.capacity() > SMALL_VOTER_TABLE {
            voting.shrink_to((len * 2).max(SMALL_VOTER_TABLE));
        }
        session
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
            occ.known_bytes += cell.known.heap_bytes();
            occ.hash_control_bytes += cell.known.control_bytes();
            occ.admission_bytes += cell.admission.heap_bytes();
            occ.reflist_bytes += cell.reflist.heap_bytes();
            occ.poll_bytes += cell.poll.as_ref().map_or(0, PollState::heap_bytes);
        }
        for table in &self.voting {
            let (slots, control) = fxmap::heap_bytes(table);
            occ.voter_sessions += table.len();
            occ.voter_session_bytes += slots + control;
            occ.hash_control_bytes += control;
        }
        occ.rng_bytes = column_bytes(&self.rng);
        occ.peer_column_bytes = column_bytes(&self.node)
            + column_bytes(&self.identity)
            + column_bytes(&self.compromised)
            + column_bytes(&self.voting);
        occ.cell_bytes = column_bytes(&self.au);
        occ.schedule_ledger_bytes = column_bytes(&self.schedule)
            + self
                .schedule
                .iter()
                .map(TaskSchedule::heap_bytes)
                .sum::<usize>()
            + column_bytes(&self.ledger);
        occ
    }
}

/// Capacity of a 16-bucket hash table (loaded to at most 7/8): a voter
/// table this size or smaller is never shrunk.
const SMALL_VOTER_TABLE: usize = 14;

/// Bytes a column's allocation holds.
pub(crate) fn column_bytes<T>(column: &Vec<T>) -> usize {
    column.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let damaged = |t: &PeerTable, p| t.aus(p).iter().filter(|a| !a.replica.is_intact()).count();
        assert_eq!(damaged(&t, 1), 0);
        t.au_mut(1, AuId(1).index()).replica.damage(3);
        assert_eq!(damaged(&t, 1), 1);
        assert_eq!(damaged(&t, 0), 0);
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
    fn live_poll_finds_only_its_own_poll_until_it_concludes() {
        use crate::config::WorldConfig;
        use crate::world::{Eng, World};
        let mut world = World::new(WorldConfig {
            n_peers: 30,
            n_aus: 2,
            seed: 4,
            ..WorldConfig::default()
        });
        let mut eng = Eng::new();
        let au = AuId(1);
        world.start_poll(&mut eng, 3, au);
        let id = world
            .peers
            .au(3, 1)
            .poll
            .as_ref()
            .expect("a poll opened")
            .id;
        assert_eq!(
            world.peers.live_poll(3, au, id).map(|poll| poll.id),
            Some(id)
        );
        assert!(world.peers.live_poll_mut(3, au, id).is_some());
        // Another id, another AU or another peer is not this poll.
        let other = PollId(id.0 + 1);
        assert!(world.peers.live_poll(3, au, other).is_none());
        assert!(world.peers.live_poll_mut(3, au, other).is_none());
        assert!(world.peers.live_poll(3, AuId(0), id).is_none());
        assert!(world.peers.live_poll(4, au, id).is_none());
        // Once concluded, every late timer or message finds nothing.
        world.finalize_poll(&mut eng, 3, au, id);
        assert!(world.peers.live_poll(3, au, id).is_none());
        assert!(world.peers.live_poll_mut(3, au, id).is_none());
    }

    /// A peer's voter table gives its buckets back once most of its
    /// sessions have closed, and a peer that alternates opening and closing
    /// at the shrink boundary does not rehash on every call.
    #[test]
    fn voter_tables_shrink_without_thrashing() {
        use lockss_sim::{Duration, SimTime};
        use std::collections::VecDeque;
        let mut t = table_with_two_aus();
        let mut schedule = TaskSchedule::new();
        let mut next = 0;
        // Opens a session under the next key; closes the oldest open one.
        let mut open = |t: &mut PeerTable, live: &mut VecDeque<u64>| {
            let reservation = schedule.reserve(SimTime::ZERO, Duration::SECOND);
            let deadline = SimTime::ZERO + Duration::DAY;
            let session = VoterSession::new(
                AuId(0),
                Identity::loyal(1),
                NodeId(1),
                reservation,
                deadline,
            );
            t.open_voter_session(0, PollId(next), session);
            live.push_back(next);
            next += 1;
        };
        let close = |t: &mut PeerTable, live: &mut VecDeque<u64>| {
            let key = live.pop_front().expect("a session is open");
            t.close_voter_session(0, PollId(key), VoterStage::AwaitingProof)
                .expect("an open session closes");
        };
        let mut live = VecDeque::new();
        for _ in 0..200 {
            open(&mut t, &mut live);
        }
        assert!(t.voting(0).capacity() >= 200);
        for _ in 0..197 {
            close(&mut t, &mut live);
        }
        assert_eq!(t.voting(0).capacity(), SMALL_VOTER_TABLE, "16 buckets");

        // Alternate one close and one open right after the table grows,
        // then one open and one close right after it shrinks: a table that
        // shrank to an exact fit would grow and shrink again every time.
        let mut changes = 0;
        for grown in [true, false] {
            let before = t.voting(0).capacity();
            while t.voting(0).capacity() == before {
                if grown {
                    open(&mut t, &mut live);
                } else {
                    close(&mut t, &mut live);
                }
            }
            let mut capacity = t.voting(0).capacity();
            for step in 0..2_000 {
                if (step % 2 == 0) == grown {
                    close(&mut t, &mut live);
                } else {
                    open(&mut t, &mut live);
                }
                if t.voting(0).capacity() != capacity {
                    capacity = t.voting(0).capacity();
                    changes += 1;
                }
            }
        }
        assert!(changes <= 2, "{changes} capacity changes");
        assert_eq!(t.voting(0).len(), live.len());
        for &key in &live {
            assert!(t.voter_session_mut(0, PollId(key)).is_some(), "{key}");
        }
        assert!(t.voter_session_mut(0, PollId(0)).is_none());
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
