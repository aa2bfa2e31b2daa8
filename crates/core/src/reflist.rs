//! Reference list and friends list maintenance (§4.1, §4.2).
//!
//! The reference list holds, per AU, the identities a poller samples its
//! inner circle from: "mostly peers that have agreed with the poller in
//! recent polls on the AU, and a few peers from its static friends list."
//! At each poll conclusion the poller removes the voters whose votes
//! determined the outcome (sample-bias defense inherited from the SOSP '03
//! protocol) and inserts agreeing outer-circle voters plus some friends.

use lockss_sim::SimRng;

use crate::config::ProtocolConfig;
use crate::types::Identity;

/// One peer's per-AU reference list plus the static friends list.
#[derive(Clone, Debug, Default)]
pub struct RefList {
    entries: Vec<Identity>,
    friends: Vec<Identity>,
}

impl RefList {
    /// Builds a list with the given static friends whose entries are
    /// `entries` as given, order and allocation; they must be distinct, as
    /// a sample is.
    pub fn new(friends: Vec<Identity>, entries: Vec<Identity>) -> RefList {
        debug_assert!((1..entries.len()).all(|i| !entries[..i].contains(&entries[i])));
        RefList { entries, friends }
    }

    /// Current reference-list members.
    pub fn members(&self) -> &[Identity] {
        &self.entries
    }

    /// The static friends list.
    pub fn friends(&self) -> &[Identity] {
        &self.friends
    }

    /// Adds an operator-configured friend (e.g. a newly joined library
    /// whose operator exchanged contacts with ours; see `churn`).
    pub fn add_friend(&mut self, id: Identity) {
        if !self.friends.contains(&id) {
            self.friends.push(id);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap bytes of the list and the friends list: capacity ×
    /// entry size.
    pub fn heap_bytes(&self) -> usize {
        (self.entries.capacity() + self.friends.capacity()) * std::mem::size_of::<Identity>()
    }

    /// True if `id` is on the list.
    pub fn contains(&self, id: Identity) -> bool {
        self.entries.contains(&id)
    }

    /// Inserts `id` if absent, evicting the front (oldest) entry when the
    /// cap is exceeded.
    pub fn insert(&mut self, id: Identity, cap: usize) {
        if self.entries.contains(&id) {
            return;
        }
        self.entries.push(id);
        while self.entries.len() > cap {
            self.entries.remove(0);
        }
    }

    /// Removes `id` if present.
    pub fn remove(&mut self, id: Identity) {
        self.entries.retain(|&e| e != id);
    }

    /// Samples up to `k` distinct members uniformly (the inner-circle
    /// sample).
    pub fn sample(&self, k: usize, rng: &mut SimRng) -> Vec<Identity> {
        rng.sample(&self.entries, k)
    }

    /// A random subset for nominations (§4.2).
    pub fn nominate(&self, k: usize, rng: &mut SimRng) -> Vec<Identity> {
        rng.sample(&self.entries, k)
    }

    /// Applies the poll-conclusion update (§4.3): removes the decisive
    /// voters, inserts agreeing outer-circle voters, and biases in some
    /// friends.
    pub fn conclude_poll(
        &mut self,
        decisive_voters: &[Identity],
        agreeing_outer: &[Identity],
        rng: &mut SimRng,
    ) {
        for &v in decisive_voters {
            self.remove(v);
        }
        for &v in agreeing_outer {
            self.insert(v, ProtocolConfig::REFLIST_CAP);
        }
        let bias: Vec<Identity> = rng.sample(&self.friends, ProtocolConfig::FRIEND_BIAS);
        for f in bias {
            self.insert(f, ProtocolConfig::REFLIST_CAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<Identity> {
        v.iter().map(|&i| Identity(i)).collect()
    }

    #[test]
    fn insert_is_idempotent_and_capped() {
        let mut rl = RefList::new(vec![], vec![]);
        rl.insert(Identity(1), 3);
        rl.insert(Identity(1), 3);
        rl.insert(Identity(2), 3);
        rl.insert(Identity(3), 3);
        assert_eq!(rl.len(), 3);
        rl.insert(Identity(4), 3);
        assert_eq!(rl.len(), 3);
        assert!(!rl.contains(Identity(1)), "oldest evicted at cap");
        assert!(rl.contains(Identity(4)));
    }

    #[test]
    fn new_keeps_the_initial_entries_as_given() {
        let initial = ids(&[7, 3, 9, 1]);
        let rl = RefList::new(ids(&[5]), initial.clone());
        assert_eq!(rl.members(), &initial[..], "input order kept");
        assert_eq!(rl.heap_bytes(), 5 * std::mem::size_of::<Identity>());
    }

    #[test]
    fn sample_draws_distinct_members() {
        let rl = RefList::new(vec![], ids(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let mut rng = SimRng::seed_from_u64(1);
        let s = rl.sample(4, &mut rng);
        assert_eq!(s.len(), 4);
        let mut t = s.clone();
        t.sort();
        t.dedup();
        assert_eq!(t.len(), 4);
        for id in s {
            assert!(rl.contains(id));
        }
    }

    #[test]
    fn conclude_poll_removes_decisive_and_adds_outer_and_friends() {
        let friends = ids(&[100, 101, 102]);
        let mut rl = RefList::new(friends, ids(&[1, 2, 3, 4, 5]));
        let mut rng = SimRng::seed_from_u64(2);
        rl.conclude_poll(&ids(&[1, 2]), &ids(&[50, 51]), &mut rng);
        assert!(!rl.contains(Identity(1)));
        assert!(!rl.contains(Identity(2)));
        assert!(rl.contains(Identity(50)));
        assert!(rl.contains(Identity(51)));
        // FRIEND_BIAS = 2 friends inserted.
        let friend_count = [100u64, 101, 102]
            .iter()
            .filter(|&&f| rl.contains(Identity(f)))
            .count();
        assert_eq!(friend_count, 2);
    }

    #[test]
    fn churn_preserves_cap() {
        let mut rl = RefList::new(ids(&[900, 901]), ids(&(0..40).collect::<Vec<u64>>()));
        let mut rng = SimRng::seed_from_u64(3);
        for round in 0..50u64 {
            let decisive: Vec<Identity> = rl.sample(10, &mut rng);
            let newcomers = ids(&[1000 + round * 3, 1001 + round * 3, 1002 + round * 3]);
            rl.conclude_poll(&decisive, &newcomers, &mut rng);
            assert!(rl.len() <= ProtocolConfig::REFLIST_CAP);
        }
    }

    #[test]
    fn empty_list_sampling() {
        let rl = RefList::new(vec![], vec![]);
        let mut rng = SimRng::seed_from_u64(4);
        assert!(rl.sample(5, &mut rng).is_empty());
        assert!(rl.is_empty());
    }
}
