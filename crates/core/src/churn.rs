//! Dynamic membership (the paper's §9 second future-work item: "we need
//! to understand how our defenses against attrition work in a more
//! dynamic environment, where new loyal peers continually join the system
//! over time").
//!
//! A joining peer starts *cold*: it holds a fresh replica (obtained from
//! the publisher, §2), knows only its operator-configured friends, and is
//! unknown to everyone else — so its invitations face the full
//! unknown-peer drop rate and refractory gauntlet until nominations and
//! introductions integrate it. [`World::reflist_penetration`] measures
//! that ramp.

use lockss_sim::Duration;
use lockss_storage::AuId;

use crate::config::ProtocolConfig;
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
        let friends = self
            .rng
            .sample_map(self.peers.len(), ProtocolConfig::FRIENDS, |idx| {
                self.peers.identity(idx)
            });

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use lockss_net::NodeId;
    use lockss_sim::{Engine, SimTime};
    use lockss_storage::AuSpec;

    fn config(seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig {
            n_peers: 30,
            n_aus: 2,
            au_spec: AuSpec {
                size_bytes: 50_000_000,
            },
            mtbf_years: 5.0,
            seed,
            ..WorldConfig::default()
        };
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
        let early = world.reflist_penetration(joiner, AuId(0));

        eng.run_until(&mut world, SimTime::ZERO + Duration::from_days(420));
        let late = world.reflist_penetration(joiner, AuId(0));
        assert!(late > early, "penetration should grow: {early} -> {late}");
        assert!(
            late > 0.05,
            "joiner should reach some reference lists: {late}"
        );
        // The joiner does real work once integrated.
        assert!(world.peers.ledger(joiner).total_secs() > 0.0);
    }

    #[test]
    fn joiner_counts_as_loyal() {
        let mut world = World::new(config(33));
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        let before = world.n_loyal();
        let minions = world.add_minions(2);
        let joiner = world.join_loyal_peer(&mut eng);
        assert_eq!(world.n_loyal(), before + 1);
        assert_eq!(joiner, before);
        // Its messages route as a loyal peer, not an adversary minion:
        // its node lies past the minions', which stay the adversary's.
        assert!(world.peers.identity(joiner).loyal_index().is_some());
        let node = world.peers.node(joiner);
        assert_eq!(world.loyal_peer_of_node(node), Some(joiner));
        assert!(minions.iter().all(|&m| m < node));
        for m in minions {
            assert_eq!(world.loyal_peer_of_node(m), None, "minion {m}");
        }
        assert_eq!(world.loyal_peer_of_node(NodeId(node.0 + 1)), None);
        assert_eq!(world.loyal_peer_of_node(world.peers.node(0)), Some(0));
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
