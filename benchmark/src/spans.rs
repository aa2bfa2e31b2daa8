//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, at each boundary the
//! harness calls across (`world-build`, `simulate`, `decode`, …), kept in
//! memory, and written out once when the traced run ends. A recorder that
//! is off records nothing: the untraced reps that feed the end-to-end
//! metrics run the same code path with `Spans::off()`.

use std::fmt::Write as _;
use std::time::Instant;

use lockss_sim::json;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one was entered.
    pub parent: Option<usize>,
    /// The rep this span belongs to; spans of one rep share it.
    pub run_id: u32,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span tree with explicit enter/exit.
pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
    run_id: u32,
}

impl Spans {
    /// A recording recorder.
    pub fn on() -> Spans {
        Spans {
            on: true,
            t0: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            run_id: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    /// Starts a new rep: spans entered from now on carry the next run id.
    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(self.recs.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.stack.pop().expect("exit without matching enter");
        self.recs[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Sum of the durations of rep `run_id`'s spans called `name`, in
    /// seconds.
    pub fn total_s(&self, run_id: u32, name: &str) -> f64 {
        let ns: u64 = self
            .recs
            .iter()
            .filter(|r| r.run_id == run_id && r.name == name)
            .map(SpanRec::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time of span `idx`: its duration minus the part its direct
    /// children cover. Children are sequential here (one thread enters and
    /// exits them), so the covered part is their sum; the subtraction
    /// saturates in case clock jitter makes the children read longer.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self.recs[idx]
            .duration_ns()
            .saturating_sub(self.children_ns(idx))
    }

    fn children_ns(&self, idx: usize) -> u64 {
        self.recs
            .iter()
            .filter(|r| r.parent == Some(idx))
            .map(SpanRec::duration_ns)
            .sum()
    }

    /// True when every closed span's children sum to no more than the span.
    pub fn telescopes(&self) -> bool {
        (0..self.recs.len())
            .all(|i| self.stack.contains(&i) || self.children_ns(i) <= self.recs[i].duration_ns())
    }

    /// The span list as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match r.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"run_id\": {}}}",
                json::escape(&r.name),
                r.start_ns,
                r.end_ns,
                self.self_ns(i),
                r.run_id
            );
        }
        out.push_str("\n  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tree with fixed times: root [0,100] with children a [10,30]
    /// (itself holding a1 [12,20]) and b [40,90].
    fn fixed() -> Spans {
        let mut s = Spans::on();
        let mut add = |name: &str, start_ns, end_ns, parent| {
            s.recs.push(SpanRec {
                name: name.into(),
                start_ns,
                end_ns,
                parent,
                run_id: 1,
            })
        };
        add("root", 0, 100, None);
        add("a", 10, 30, Some(0));
        add("a1", 12, 20, Some(1));
        add("b", 40, 90, Some(0));
        s
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let s = fixed();
        assert_eq!(s.self_ns(0), 100 - 20 - 50, "siblings a and b both count");
        assert_eq!(s.self_ns(1), 20 - 8, "only the direct child a1");
        assert_eq!(s.self_ns(2), 8);
        assert_eq!(s.self_ns(3), 50);
        assert!(s.telescopes());
    }

    #[test]
    fn self_time_saturates_and_telescoping_notices() {
        let mut s = fixed();
        s.recs[3].end_ns = 200; // child outlives its parent
        assert_eq!(s.self_ns(0), 0);
        assert!(!s.telescopes());
    }

    #[test]
    fn enter_exit_builds_parents_and_run_ids() {
        let mut s = Spans::on();
        s.next_run();
        s.scope("outer", |s| {
            s.scope("inner", |_| {});
            s.scope("kernel:x", |_| {});
        });
        s.next_run();
        s.scope("outer", |_| {});
        let r = &s.recs;
        assert_eq!(r.len(), 4);
        assert_eq!(
            (r[0].parent, r[1].parent, r[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((r[0].run_id, r[3].run_id), (1, 2));
        assert!(r[0].end_ns >= r[1].end_ns && r[1].start_ns >= r[0].start_ns);
        assert!(s.telescopes());
        assert!(s.total_s(1, "outer") >= s.total_s(1, "inner"));
        assert_eq!(s.total_s(3, "outer"), 0.0);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.scope("x", |_| 7), 7);
        assert!(s.recs.is_empty());
    }

    #[test]
    fn json_parses_with_the_shared_reader() {
        let s = fixed();
        let doc = format!("{{\"spans\": {}}}", s.to_json());
        let v = json::parse(&doc).expect("valid JSON");
        let spans = json::get(v.as_object("root").unwrap(), "spans")
            .unwrap()
            .as_array("spans")
            .unwrap();
        assert_eq!(spans.len(), 4);
        let b = spans[3].as_object("span").unwrap();
        assert_eq!(
            json::get(b, "self_ns").unwrap().as_u64("self_ns").unwrap(),
            50
        );
        assert!(json::get_opt(spans[0].as_object("span").unwrap(), "parent").is_none());
    }
}
