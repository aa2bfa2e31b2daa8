//! Flow-level simulated network (the paper's Narses network model).
//!
//! The paper deliberately chose "a simplistic network model that takes into
//! account network delays but not congestion, except for the side-effects of
//! artificial congestion used by a pipe stoppage adversary" (§6.2). This
//! crate implements exactly that:
//!
//! - each node attaches to the network through a link with a bandwidth drawn
//!   uniformly from {1.5, 10, 100} Mbps and a latency drawn uniformly from
//!   [1, 30] ms;
//! - a message of `n` bytes from `a` to `b` arrives after
//!   `latency(a) + latency(b) + n / min(bw(a), bw(b))`;
//! - **pipe stoppage** suppresses all communication to and from a set of
//!   victim nodes: sends fail at origination and in-flight checks let the
//!   caller drop deliveries that would land during stoppage;
//! - per-node traffic accounting feeds the metrics crate.

pub mod topology;

pub use topology::{LinkSpec, Network, NodeId, TrafficStats};
