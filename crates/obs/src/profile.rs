//! Profiling spans: a self/total wall-clock span tree.
//!
//! A [`Profiler`] accumulates named spans into a tree keyed by call
//! path: entering `"simulate"` under `"run"` always lands in the same
//! node, so repeated calls accumulate `calls` and `total_ns` instead of
//! growing the tree. Spans are scoped guards ([`Span`]) around an
//! `Option<SharedProfiler>`, so un-profiled runs pay one null-check per
//! site. Per-worker profilers from a sweep are merged with
//! [`Profiler::absorb`].
//!
//! Timing uses `Instant` (wall clock): profile output is strictly
//! out-of-band and never feeds back into simulation results.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::{
    Layout::{Inline, Lines},
    Writer,
};

/// Format tag stamped on every [`Profiler::to_json`] document. Span
/// names are not part of the contract; the document shape is.
pub const FORMAT: &str = "lockss-profile-v1";

/// A profiler shared between the runner and the world it drives.
///
/// `Rc<RefCell<..>>` because the run path is single-threaded; sweep
/// workers each own one and merge at the end.
pub type SharedProfiler = Rc<RefCell<Profiler>>;

#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
}

/// Accumulates a span tree.
#[derive(Debug, Default, Clone)]
pub struct Profiler {
    nodes: Vec<Node>,
    /// Root node indices in first-entered order.
    roots: Vec<usize>,
    /// Indices of currently open spans, outermost first.
    stack: Vec<usize>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty profiler already wrapped for sharing.
    pub fn shared() -> SharedProfiler {
        Rc::new(RefCell::new(Self::new()))
    }

    fn child_named(&self, parent: Option<usize>, name: &str) -> Option<usize> {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name)
    }

    /// Opens a span named `name` under the currently open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().copied();
        let idx = match self.child_named(parent, name) {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(Node {
                    name,
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.nodes[idx].calls += 1;
        self.stack.push(idx);
    }

    /// Closes the innermost open span, crediting it `elapsed_ns`.
    pub fn exit(&mut self, elapsed_ns: u64) {
        let idx = self.stack.pop().expect("exit without matching enter");
        self.nodes[idx].total_ns += elapsed_ns;
    }

    /// Merges `other`'s span tree into this one: nodes with the same
    /// call path accumulate calls and time. Open spans in `other` are
    /// ignored (their time was never credited).
    pub fn absorb(&mut self, other: &Profiler) {
        for &r in &other.roots {
            self.absorb_node(other, r, None);
        }
    }

    fn absorb_node(&mut self, other: &Profiler, theirs: usize, parent: Option<usize>) {
        let src = &other.nodes[theirs];
        let idx = match self.child_named(parent, src.name) {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(Node {
                    name: src.name,
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.nodes[idx].calls += src.calls;
        self.nodes[idx].total_ns += src.total_ns;
        for &c in &other.nodes[theirs].children.clone() {
            self.absorb_node(other, c, Some(idx));
        }
    }

    /// Self time of a node: total minus children's totals (clamped, in
    /// case clock jitter makes an inner reading exceed the outer one).
    fn self_ns(&self, idx: usize) -> u64 {
        let n = &self.nodes[idx];
        let children: u64 = n.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        n.total_ns.saturating_sub(children)
    }

    /// True when every closed node's children sum to no more than the
    /// node's own total — the telescoping invariant of a span tree.
    pub fn telescopes(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, n)| {
            let children: u64 = n.children.iter().map(|&c| self.nodes[c].total_ns).sum();
            children <= n.total_ns || self.stack.contains(&i)
        })
    }

    /// Renders the tree as a `lockss-profile-v1` JSON document.
    pub fn to_json(&self, name: &str) -> String {
        let mut w = Writer::new();
        w.object(Lines)
            .field("format", FORMAT)
            .field("name", name)
            .key("spans");
        self.render_nodes(&mut w, &self.roots);
        w.end().finish() + "\n"
    }

    /// Writes `nodes` as an array, one node per line, each an inline
    /// object whose `children` nest one line-level deeper.
    fn render_nodes(&self, w: &mut Writer, nodes: &[usize]) {
        w.array(Lines);
        for &idx in nodes {
            let n = &self.nodes[idx];
            w.object(Inline)
                .field("name", n.name)
                .field("calls", n.calls)
                .field("total_ns", n.total_ns)
                .field("self_ns", self.self_ns(idx))
                .key("children");
            self.render_nodes(w, &n.children);
            w.end();
        }
        w.end();
    }
}

/// A scoped span guard: credits elapsed wall time on drop.
pub struct Span {
    prof: SharedProfiler,
    start: Instant,
}

impl Span {
    /// Opens `name` when a profiler is installed; `None` otherwise —
    /// the disabled path is a single null-check.
    #[inline]
    pub fn enter(prof: &Option<SharedProfiler>, name: &'static str) -> Option<Span> {
        prof.as_ref().map(|p| {
            p.borrow_mut().enter(name);
            Span {
                prof: Rc::clone(p),
                start: Instant::now(),
            }
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        self.prof.borrow_mut().exit(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(p: &mut Profiler) {
        p.enter("run");
        p.enter("build");
        p.exit(10);
        p.enter("simulate");
        p.enter("poll");
        p.exit(5);
        p.enter("poll");
        p.exit(7);
        p.exit(60);
        p.exit(100);
    }

    #[test]
    fn paths_accumulate() {
        let mut p = Profiler::new();
        walk(&mut p);
        walk(&mut p);
        let json = p.to_json("t");
        assert!(json.contains("\"name\": \"poll\", \"calls\": 4, \"total_ns\": 24"));
        assert!(json
            .contains("\"name\": \"simulate\", \"calls\": 2, \"total_ns\": 120, \"self_ns\": 96"));
        assert!(p.telescopes());
    }

    #[test]
    fn absorb_merges_by_path() {
        let mut a = Profiler::new();
        walk(&mut a);
        let mut b = Profiler::new();
        walk(&mut b);
        b.enter("run");
        b.enter("seal");
        b.exit(3);
        b.exit(50);
        a.absorb(&b);
        let json = a.to_json("merged");
        assert!(json.contains("\"name\": \"run\", \"calls\": 3, \"total_ns\": 250"));
        assert!(json.contains("\"name\": \"seal\", \"calls\": 1, \"total_ns\": 3"));
        assert!(a.telescopes());
    }

    #[test]
    fn telescoping_violation_detected() {
        let mut p = Profiler::new();
        p.enter("outer");
        p.enter("inner");
        p.exit(100);
        p.exit(10); // inner > outer: impossible for real guards
        assert!(!p.telescopes());
    }

    #[test]
    fn span_guard_records() {
        let shared = Some(Profiler::shared());
        {
            let _outer = Span::enter(&shared, "outer");
            let _inner = Span::enter(&shared, "inner");
        }
        let p = shared.as_ref().unwrap().borrow();
        assert!(p.telescopes());
        let json = p.to_json("guard");
        assert!(json.contains("\"name\": \"outer\", \"calls\": 1"));
        assert!(json.contains("\"name\": \"inner\", \"calls\": 1"));
        assert!(Span::enter(&None, "x").is_none());
    }
}
