//! Node links, delay computation, pipe stoppage, and traffic accounting.

use lockss_sim::{Duration, SimRng};

/// Identifies a node (loyal peer or adversary minion) on the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node's attachment link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation latency to the network core.
    pub latency: Duration,
}

/// The paper's three access-link bandwidth classes (§6.2).
pub const BANDWIDTH_CLASSES_BPS: [u64; 3] = [1_500_000, 10_000_000, 100_000_000];

impl LinkSpec {
    /// Draws a link uniformly from the paper's distribution: bandwidth from
    /// {1.5, 10, 100} Mbps, latency from [1, 30] ms.
    pub fn sample(rng: &mut SimRng) -> LinkSpec {
        let bandwidth_bps = BANDWIDTH_CLASSES_BPS[rng.below(BANDWIDTH_CLASSES_BPS.len())];
        let latency = rng.duration_between(Duration::from_millis(1), Duration::from_millis(30));
        LinkSpec {
            bandwidth_bps,
            latency,
        }
    }
}

/// Cumulative per-node traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    pub messages_sent: u64,
    pub messages_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Sends that failed because an endpoint was stopped.
    pub suppressed: u64,
}

struct Node {
    link: LinkSpec,
    /// Suppression count: how many attackers currently pipe-stop this
    /// node. A count, not a flag, so overlapping suppressors (e.g. two
    /// composed pipe stoppages, or a stoppage plus a churn storm) cannot
    /// clobber each other's state on release.
    stopped: u32,
    traffic: TrafficStats,
}

/// The simulated network.
pub struct Network {
    nodes: Vec<Node>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Network {
        Network { nodes: Vec::new() }
    }

    /// Adds a node with the given link, returning its id.
    pub fn add_node(&mut self, link: LinkSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            link,
            stopped: 0,
            traffic: TrafficStats::default(),
        });
        id
    }

    /// Adds `n` nodes with links sampled from the paper's distribution.
    pub fn add_sampled_nodes(&mut self, n: usize, rng: &mut SimRng) -> Vec<NodeId> {
        (0..n)
            .map(|_| self.add_node(LinkSpec::sample(rng)))
            .collect()
    }

    /// Adds `n` nodes whose bandwidth class is drawn from a weighted mix
    /// over [`BANDWIDTH_CLASSES_BPS`] (latency stays uniform in [1, 30] ms).
    ///
    /// Production-scale worlds use this to model realistic skew — most
    /// libraries on modest access links, a few well-provisioned — instead
    /// of the paper's uniform three-way split. Draws go through an O(1)
    /// alias table, so provisioning 100k nodes costs 100k draws, not a CDF
    /// scan per node.
    pub fn add_weighted_nodes(
        &mut self,
        n: usize,
        class_weights: &[f64; 3],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let table = lockss_sim::AliasTable::new(class_weights);
        (0..n)
            .map(|_| {
                let bandwidth_bps = BANDWIDTH_CLASSES_BPS[table.draw(rng)];
                let latency =
                    rng.duration_between(Duration::from_millis(1), Duration::from_millis(30));
                self.add_node(LinkSpec {
                    bandwidth_bps,
                    latency,
                })
            })
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The link of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not created by this network.
    pub fn link(&self, node: NodeId) -> LinkSpec {
        self.nodes[node.index()].link
    }

    /// Marks `node` as pipe-stopped (victim of a DoS adversary) or
    /// releases one suppression. Suppression is *counted*: each
    /// `set_stopped(node, true)` must be balanced by one
    /// `set_stopped(node, false)`, and the node stays stopped while any
    /// suppressor remains — overlapping attacks (composite campaigns)
    /// cannot un-stop each other's victims. Releasing below zero
    /// saturates.
    pub fn set_stopped(&mut self, node: NodeId, stopped: bool) {
        let count = &mut self.nodes[node.index()].stopped;
        if stopped {
            *count += 1;
        } else {
            *count = count.saturating_sub(1);
        }
    }

    /// True if `node` is currently pipe-stopped (by anyone).
    pub fn is_stopped(&self, node: NodeId) -> bool {
        self.nodes[node.index()].stopped > 0
    }

    /// True if `a` and `b` can currently exchange traffic.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.is_stopped(a) && !self.is_stopped(b) && a != b
    }

    /// Pure delay computation: how long `bytes` take from `from` to `to`,
    /// ignoring stoppage.
    pub fn transfer_delay(&self, from: NodeId, to: NodeId, bytes: u64) -> Duration {
        let f = &self.nodes[from.index()].link;
        let t = &self.nodes[to.index()].link;
        let bw = f.bandwidth_bps.min(t.bandwidth_bps);
        let serialization = Duration::from_secs_f64(bytes as f64 * 8.0 / bw as f64);
        f.latency + t.latency + serialization
    }

    /// Attempts to send `bytes` from `from` to `to`: returns the delivery
    /// delay, or `None` (and counts a suppression) if either endpoint is
    /// pipe-stopped or the destination is the source.
    ///
    /// The caller is responsible for also consulting [`Self::reachable`] at
    /// delivery time if it wants in-flight messages killed by a stoppage
    /// that begins mid-transfer (the experiments do).
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u64) -> Option<Duration> {
        if !self.reachable(from, to) {
            self.nodes[from.index()].traffic.suppressed += 1;
            return None;
        }
        let delay = self.transfer_delay(from, to, bytes);
        {
            let f = &mut self.nodes[from.index()].traffic;
            f.messages_sent += 1;
            f.bytes_sent += bytes;
        }
        {
            let t = &mut self.nodes[to.index()].traffic;
            t.messages_received += 1;
            t.bytes_received += bytes;
        }
        Some(delay)
    }

    /// Traffic counters for `node`.
    pub fn traffic(&self, node: NodeId) -> TrafficStats {
        self.nodes[node.index()].traffic
    }

    /// Sum of traffic counters over all nodes.
    pub fn total_traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for n in &self.nodes {
            total.messages_sent += n.traffic.messages_sent;
            total.messages_received += n.traffic.messages_received;
            total.bytes_sent += n.traffic.bytes_sent;
            total.bytes_received += n.traffic.bytes_received;
            total.suppressed += n.traffic.suppressed;
        }
        total
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net(bw_a: u64, lat_a: u64, bw_b: u64, lat_b: u64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(LinkSpec {
            bandwidth_bps: bw_a,
            latency: Duration::from_millis(lat_a),
        });
        let b = net.add_node(LinkSpec {
            bandwidth_bps: bw_b,
            latency: Duration::from_millis(lat_b),
        });
        (net, a, b)
    }

    #[test]
    fn delay_is_latency_plus_serialization_at_bottleneck() {
        let (net, a, b) = two_node_net(1_500_000, 10, 100_000_000, 5);
        // 1.5 Mbps bottleneck: 1 MB = 8e6 bits / 1.5e6 bps ≈ 5333 ms.
        let d = net.transfer_delay(a, b, 1_000_000);
        let expect = Duration::from_millis(10 + 5 + 5333);
        assert_eq!(d, expect);
    }

    #[test]
    fn tiny_message_is_latency_dominated() {
        let (net, a, b) = two_node_net(100_000_000, 1, 100_000_000, 30);
        let d = net.transfer_delay(a, b, 100);
        // 800 bits / 1e8 bps = 8 microseconds, rounds to 0 ms.
        assert_eq!(d, Duration::from_millis(31));
    }

    #[test]
    fn send_counts_traffic_both_sides() {
        let (mut net, a, b) = two_node_net(10_000_000, 1, 10_000_000, 1);
        assert!(net.send(a, b, 500).is_some());
        assert_eq!(net.traffic(a).messages_sent, 1);
        assert_eq!(net.traffic(a).bytes_sent, 500);
        assert_eq!(net.traffic(b).messages_received, 1);
        assert_eq!(net.traffic(b).bytes_received, 500);
        assert_eq!(net.traffic(b).messages_sent, 0);
    }

    #[test]
    fn stoppage_suppresses_both_directions() {
        let (mut net, a, b) = two_node_net(10_000_000, 1, 10_000_000, 1);
        net.set_stopped(b, true);
        assert!(net.send(a, b, 1).is_none());
        assert!(net.send(b, a, 1).is_none());
        assert_eq!(net.traffic(a).suppressed, 1);
        assert_eq!(net.traffic(b).suppressed, 1);
        assert!(!net.reachable(a, b));
        net.set_stopped(b, false);
        assert!(net.send(a, b, 1).is_some());
        assert!(net.reachable(a, b));
    }

    #[test]
    fn overlapping_suppressions_are_counted() {
        let (mut net, a, b) = two_node_net(10_000_000, 1, 10_000_000, 1);
        // Two independent attackers stop the same node...
        net.set_stopped(b, true);
        net.set_stopped(b, true);
        // ...one releasing must not un-stop it for the other.
        net.set_stopped(b, false);
        assert!(net.is_stopped(b));
        assert!(!net.reachable(a, b));
        net.set_stopped(b, false);
        assert!(!net.is_stopped(b));
        assert!(net.reachable(a, b));
        // Releasing below zero saturates.
        net.set_stopped(b, false);
        assert!(!net.is_stopped(b));
    }

    #[test]
    fn self_send_is_rejected() {
        let (mut net, a, _) = two_node_net(10_000_000, 1, 10_000_000, 1);
        assert!(net.send(a, a, 1).is_none());
    }

    #[test]
    fn sampled_links_are_in_the_paper_distribution() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut net = Network::new();
        let ids = net.add_sampled_nodes(200, &mut rng);
        assert_eq!(ids.len(), 200);
        let mut seen = [false; 3];
        for id in ids {
            let l = net.link(id);
            let class = BANDWIDTH_CLASSES_BPS
                .iter()
                .position(|&b| b == l.bandwidth_bps)
                .expect("bandwidth must be one of the paper's classes");
            seen[class] = true;
            assert!(l.latency >= Duration::from_millis(1));
            assert!(l.latency <= Duration::from_millis(30));
        }
        assert!(seen.iter().all(|&s| s), "all classes should appear");
    }

    #[test]
    fn weighted_nodes_follow_the_mix() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut net = Network::new();
        let ids = net.add_weighted_nodes(20_000, &[0.6, 0.3, 0.1], &mut rng);
        let mut counts = [0usize; 3];
        for id in ids {
            let l = net.link(id);
            let class = BANDWIDTH_CLASSES_BPS
                .iter()
                .position(|&b| b == l.bandwidth_bps)
                .expect("bandwidth in the class set");
            counts[class] += 1;
            assert!(l.latency >= Duration::from_millis(1));
            assert!(l.latency <= Duration::from_millis(30));
        }
        let frac = |c: usize| c as f64 / 20_000.0;
        assert!((frac(counts[0]) - 0.6).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.3).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.1).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn rtt_is_double_sum_of_latencies() {
        let (net, a, b) = two_node_net(10_000_000, 10, 10_000_000, 20);
        let rtt = net.transfer_delay(a, b, 0) + net.transfer_delay(b, a, 0);
        assert_eq!(rtt, Duration::from_millis(60));
    }

    #[test]
    fn total_traffic_aggregates() {
        let (mut net, a, b) = two_node_net(10_000_000, 1, 10_000_000, 1);
        net.send(a, b, 100);
        net.send(b, a, 50);
        let t = net.total_traffic();
        assert_eq!(t.messages_sent, 2);
        assert_eq!(t.messages_received, 2);
        assert_eq!(t.bytes_sent, 150);
        assert_eq!(t.bytes_received, 150);
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    /// Transfer delay is monotone in payload size and bounded below by
    /// the endpoint latencies.
    #[test]
    fn delay_monotone_in_bytes() {
        let mut rng = SimRng::seed_from_u64(0x6e65_7401);
        for _ in 0..256 {
            let bw_a = *rng.choose(&BANDWIDTH_CLASSES_BPS).unwrap();
            let bw_b = *rng.choose(&BANDWIDTH_CLASSES_BPS).unwrap();
            let lat_a = 1 + rng.below(30) as u64;
            let lat_b = 1 + rng.below(30) as u64;
            let small = rng.below(100_000) as u64;
            let extra = 1 + rng.below(10_000_000) as u64;
            let mut net = Network::new();
            let a = net.add_node(LinkSpec {
                bandwidth_bps: bw_a,
                latency: Duration::from_millis(lat_a),
            });
            let b = net.add_node(LinkSpec {
                bandwidth_bps: bw_b,
                latency: Duration::from_millis(lat_b),
            });
            let d_small = net.transfer_delay(a, b, small);
            let d_big = net.transfer_delay(a, b, small + extra);
            assert!(d_big >= d_small);
            assert!(d_small >= Duration::from_millis(lat_a + lat_b));
        }
    }

    /// Delay is symmetric in direction.
    #[test]
    fn delay_symmetric() {
        let mut rng = SimRng::seed_from_u64(0x6e65_7402);
        for _ in 0..256 {
            let lat_a = 1 + rng.below(30) as u64;
            let lat_b = 1 + rng.below(30) as u64;
            let bytes = rng.below(5_000_000) as u64;
            let mut net = Network::new();
            let a = net.add_node(LinkSpec {
                bandwidth_bps: 10_000_000,
                latency: Duration::from_millis(lat_a),
            });
            let b = net.add_node(LinkSpec {
                bandwidth_bps: 1_500_000,
                latency: Duration::from_millis(lat_b),
            });
            assert_eq!(
                net.transfer_delay(a, b, bytes),
                net.transfer_delay(b, a, bytes)
            );
        }
    }
}
