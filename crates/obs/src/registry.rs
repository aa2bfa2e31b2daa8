//! Deterministic metrics registry: counters, gauges, and fixed-bucket
//! histograms behind pre-registered handles.
//!
//! All metrics are registered up front through [`RegistryBuilder`]; the
//! registry never allocates after `build()`. Handles are cheap `Arc`
//! clones around atomic slots, so sweep worker threads can share one
//! registry without locks. Snapshots iterate in registration order,
//! which makes the JSON and Prometheus expositions deterministic for a
//! given build of the binary.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::{
    Layout::{Inline, Lines},
    Writer,
};

/// Format tag stamped on every [`Registry::to_json`] document. New
/// metrics may appear under the same version; renaming or re-typing an
/// existing metric bumps it.
pub const FORMAT: &str = "lockss-metrics-v1";

/// What kind of metric a registered name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-write-wins `u64`.
    Gauge,
    /// Fixed-bucket histogram of `u64` observations.
    Histogram,
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle.
///
/// Bucket bounds are inclusive upper edges; an implicit `+Inf` bucket
/// catches everything above the last bound. `observe` is a linear scan
/// over the (small, fixed) bound list plus three relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram {
    bounds: Arc<[u64]>,
    /// One slot per bound, then the overflow slot, then count, then sum.
    slots: Arc<[AtomicU64]>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let mut idx = self.bounds.len();
        for (i, &b) in self.bounds.iter().enumerate() {
            if v <= b {
                idx = i;
                break;
            }
        }
        let n = self.bounds.len();
        self.slots[idx].fetch_add(1, Ordering::Relaxed);
        self.slots[n + 1].fetch_add(1, Ordering::Relaxed);
        self.slots[n + 2].fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.slots[self.bounds.len() + 1].load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.slots[self.bounds.len() + 2].load(Ordering::Relaxed)
    }

    /// Per-bucket counts in bound order, overflow last.
    fn bucket_counts(&self) -> Vec<u64> {
        (0..=self.bounds.len())
            .map(|i| self.slots[i].load(Ordering::Relaxed))
            .collect()
    }
}

enum Slots {
    Scalar(Arc<AtomicU64>),
    Histogram(Histogram),
}

struct Metric {
    name: String,
    help: String,
    kind: MetricKind,
    slots: Slots,
}

/// Builder that registers every metric up front.
///
/// Names must be non-empty `[a-z0-9_]` identifiers (Prometheus-safe)
/// and unique within the registry; violations panic at registration
/// time, which is a programming error, not a runtime condition.
#[derive(Default)]
pub struct RegistryBuilder {
    metrics: Vec<Metric>,
}

impl RegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_name(&self, name: &str) {
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "metric name {name:?} must be non-empty [a-z0-9_]"
        );
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric name {name:?} registered twice"
        );
    }

    /// Registers a counter and returns its handle.
    pub fn counter(&mut self, name: &str, help: &str) -> Counter {
        self.check_name(name);
        let slot = Arc::new(AtomicU64::new(0));
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Counter,
            slots: Slots::Scalar(slot.clone()),
        });
        Counter(slot)
    }

    /// Registers a gauge and returns its handle.
    pub fn gauge(&mut self, name: &str, help: &str) -> Gauge {
        self.check_name(name);
        let slot = Arc::new(AtomicU64::new(0));
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Gauge,
            slots: Slots::Scalar(slot.clone()),
        });
        Gauge(slot)
    }

    /// Registers a histogram with the given inclusive upper bucket
    /// bounds (must be strictly increasing and non-empty).
    pub fn histogram(&mut self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.check_name(name);
        assert!(!bounds.is_empty(), "histogram {name:?} needs >= 1 bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly increasing"
        );
        let slots: Arc<[AtomicU64]> = (0..bounds.len() + 3)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into();
        let h = Histogram {
            bounds: bounds.to_vec().into(),
            slots,
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Histogram,
            slots: Slots::Histogram(h.clone()),
        });
        h
    }

    /// Finishes registration.
    pub fn build(self) -> Registry {
        Registry {
            metrics: Arc::new(self.metrics),
        }
    }
}

/// A sealed set of metrics; cheap to clone and share across threads.
#[derive(Clone)]
pub struct Registry {
    metrics: Arc<Vec<Metric>>,
}

impl Registry {
    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the registry as a JSON object (format tag
    /// `lockss-metrics-v1`), metrics in registration order. Counters and
    /// gauges render as numbers; histograms as
    /// `{"buckets": [[le, count], ...], "count": n, "sum": s}` with the
    /// overflow bucket keyed `"+Inf"`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Lines)
            .field("format", FORMAT)
            .key("metrics")
            .object(Lines);
        for m in self.metrics.iter() {
            w.key(&m.name);
            match &m.slots {
                Slots::Scalar(s) => {
                    w.value(s.load(Ordering::Relaxed));
                }
                Slots::Histogram(h) => {
                    w.object(Inline).key("buckets").array(Inline);
                    for (j, c) in h.bucket_counts().into_iter().enumerate() {
                        w.array(Inline);
                        match h.bounds.get(j) {
                            Some(le) => w.value(le),
                            None => w.value("+Inf"),
                        };
                        w.value(c).end();
                    }
                    w.end()
                        .field("count", h.count())
                        .field("sum", h.sum())
                        .end();
                }
            }
        }
        w.end().end().finish() + "\n"
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4), metrics in registration order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter() {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let kind = match m.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            match &m.slots {
                Slots::Scalar(s) => {
                    let _ = writeln!(out, "{} {}", m.name, s.load(Ordering::Relaxed));
                }
                Slots::Histogram(h) => {
                    // Prometheus buckets are cumulative.
                    let mut cum = 0u64;
                    let counts = h.bucket_counts();
                    for (j, c) in counts.iter().enumerate() {
                        cum += c;
                        if j < h.bounds.len() {
                            let _ = writeln!(
                                out,
                                "{}_bucket{{le=\"{}\"}} {}",
                                m.name, h.bounds[j], cum
                            );
                        } else {
                            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, cum);
                        }
                    }
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", m.name, h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Registry, Counter, Gauge, Histogram) {
        let mut b = RegistryBuilder::new();
        let c = b.counter("polls_started_total", "Polls called by pollers");
        let g = b.gauge("arena_live", "Live closures in the event arena");
        let h = b.histogram("poll_votes", "Votes per concluded poll", &[1, 4, 16]);
        (b.build(), c, g, h)
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let (_r, c, g, _h) = sample();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        g.set(7);
        g.raise(3); // lower: no-op
        assert_eq!(g.get(), 7);
        g.raise(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_buckets() {
        let (_r, _c, _g, h) = sample();
        for v in [0, 1, 2, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1041);
        assert_eq!(h.bucket_counts(), vec![2, 1, 2, 2]);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let (r, c, g, h) = sample();
        c.add(2);
        g.set(11);
        h.observe(3);
        let j1 = r.to_json();
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"polls_started_total\": 2"));
        assert!(j1.contains("[4, 1]"));
        let p = r.to_prometheus();
        assert!(p.contains("# TYPE polls_started_total counter"));
        assert!(p.contains("poll_votes_bucket{le=\"+Inf\"} 1"));
        assert!(p.contains("poll_votes_sum 3"));
        assert!(p.contains("arena_live 11"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut b = RegistryBuilder::new();
        b.counter("x", "");
        b.counter("x", "");
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn bad_names_panic() {
        let mut b = RegistryBuilder::new();
        b.counter("Polls", "");
    }
}
