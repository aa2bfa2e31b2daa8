//! Replay verification: re-drive a scenario and check event-for-event
//! equivalence against a recorded trace.
//!
//! Because a run is a pure function of `(scenario, seed)`, a faithful
//! replay must reproduce the recorded stream *exactly* — same events, same
//! simulated instants, same engine ordinals, in the same order. The
//! [`Verifier`] is a [`TraceSink`] that consumes the recorded stream as
//! the replay emits its own; the first mismatch is captured as a
//! [`Divergence`] with full context, and the sink asks the engine to stop
//! so the replay aborts instead of simulating months past the fork.

use std::cell::RefCell;
use std::rc::Rc;

use lockss_core::trace::{TraceEvent, TraceSink};
use lockss_sim::SimTime;

use crate::format::{Trace, TraceMeta, TraceReader, TraceRecord};
use crate::wire::TraceError;

/// The first point where a replay departed from the recorded trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Zero-based index of the diverging record.
    pub index: u64,
    /// What the recorded trace holds at that index (`None`: the recording
    /// ended but the replay kept emitting).
    pub expected: Option<TraceRecord>,
    /// What the replay emitted (`None`: the replay ended but the recording
    /// holds more events).
    pub actual: Option<TraceRecord>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first divergence at record #{}:", self.index)?;
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                writeln!(f, "  recorded: {e}")?;
                writeln!(f, "  replayed: {a}")?;
                if e.event.kind() != a.event.kind() {
                    write!(
                        f,
                        "  delta: event kind forked ({} vs {})",
                        e.event.kind(),
                        a.event.kind()
                    )
                } else if e.at != a.at {
                    write!(
                        f,
                        "  delta: same kind, time forked ({:.4}d vs {:.4}d)",
                        e.at.as_days_f64(),
                        a.at.as_days_f64()
                    )
                } else {
                    write!(f, "  delta: same kind and time, payload differs")
                }
            }
            (Some(e), None) => write!(
                f,
                "  recorded: {e}\n  replayed: <run ended before this record>"
            ),
            (None, Some(a)) => {
                write!(f, "  recorded: <end of trace>\n  replayed: {a}")
            }
            (None, None) => write!(f, "  (no detail)"),
        }
    }
}

/// The result of verifying a replay against a recorded trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// The recorded trace's metadata.
    pub meta: TraceMeta,
    /// Events that matched exactly before the stream ended or forked.
    pub events_matched: u64,
    /// Recorded events never reached by the replay (0 on a clean match;
    /// only meaningful when the divergence is an early run end).
    pub events_unreached: u64,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// True when the replay reproduced the recording event-for-event.
    pub fn is_equivalent(&self) -> bool {
        self.divergence.is_none()
    }
}

impl std::fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.divergence {
            None => write!(
                f,
                "replay equivalent: {} event(s) matched, zero divergence",
                self.events_matched
            ),
            Some(d) => {
                writeln!(
                    f,
                    "replay DIVERGED after {} matching event(s)",
                    self.events_matched
                )?;
                write!(f, "{d}")?;
                if self.events_unreached > 0 {
                    write!(
                        f,
                        "\n  ({} recorded event(s) unreached)",
                        self.events_unreached
                    )
                } else {
                    Ok(())
                }
            }
        }
    }
}

struct VerifierInner {
    reader: TraceReader,
    /// Records in the recorded trace.
    total: u64,
    matched: u64,
    divergence: Option<Divergence>,
    /// A record failed to decode mid-stream (surfaced by `finish`).
    error: Option<TraceError>,
}

/// A [`TraceSink`] that checks a replay against a recorded trace.
///
/// Like [`crate::Recorder`], a shared handle: install one clone as the
/// world's sink, then call [`Verifier::finish`] on the other after the
/// run. Comparison streams record-by-record through a [`TraceReader`]
/// sharing the trace's bytes, so memory stays bounded by one decoded
/// block even for multi-million-event default-scale traces.
#[derive(Clone)]
pub struct Verifier {
    inner: Rc<RefCell<VerifierInner>>,
}

impl Verifier {
    /// Prepares to verify against the recorded trace.
    pub fn new(trace: &Trace) -> Verifier {
        Verifier {
            inner: Rc::new(RefCell::new(VerifierInner {
                reader: trace.records(),
                total: trace.events(),
                matched: 0,
                divergence: None,
                error: None,
            })),
        }
    }

    /// Seals verification: any recorded events the replay never reached
    /// become a divergence (unless one was already found). Errs only if a
    /// record failed to decode (corruption past the hash check — a format
    /// bug, not a divergence).
    ///
    /// `meta` is echoed into the report (callers hold it from the trace).
    pub fn finish(self, meta: TraceMeta) -> Result<ReplayReport, TraceError> {
        let mut inner = self.inner.borrow_mut();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let matched = inner.matched;
        let mut divergence = inner.divergence.clone();
        if divergence.is_none() {
            if let Some(expected) = inner.reader.next().transpose()? {
                divergence = Some(Divergence {
                    index: matched,
                    expected: Some(expected),
                    actual: None,
                });
            }
        }
        Ok(ReplayReport {
            meta,
            events_matched: matched,
            events_unreached: inner.total - matched,
            divergence,
        })
    }
}

impl TraceSink for Verifier {
    fn record(&mut self, at: SimTime, seq: u64, event: &TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        if inner.divergence.is_some() || inner.error.is_some() {
            return; // already forked; the engine is being stopped
        }
        let inner = &mut *inner;
        match inner.reader.next_record() {
            Err(e) => inner.error = Some(e),
            Ok(Some(r)) if (r.at, r.seq) == (at, seq) && r.event == *event => inner.matched += 1,
            Ok(expected) => {
                inner.divergence = Some(Divergence {
                    index: inner.matched,
                    expected: expected.cloned(),
                    actual: Some(TraceRecord {
                        at,
                        seq,
                        event: *event,
                    }),
                });
            }
        }
    }

    fn wants_stop(&self) -> bool {
        let inner = self.inner.borrow();
        inner.divergence.is_some() || inner.error.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Recorder;
    use lockss_sim::Duration;

    fn meta() -> TraceMeta {
        TraceMeta {
            scenario: "baseline".into(),
            scale: "quick".into(),
            seed: 1,
            run_length_ms: Duration::from_days(10).as_millis(),
        }
    }

    fn record(events: &[(u64, u64, TraceEvent)]) -> Trace {
        let rec = Recorder::new(&meta());
        let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
        for (ms, seq, e) in events {
            sink.record(SimTime(*ms), *seq, e);
        }
        rec.finish()
    }

    fn ev(poll: u64) -> TraceEvent {
        TraceEvent::PollStart {
            peer: 0,
            au: 0,
            poll,
        }
    }

    #[test]
    fn identical_stream_is_equivalent() {
        let trace = record(&[(5, 1, ev(0)), (9, 2, ev(1))]);
        let v = Verifier::new(&trace);
        let mut sink: Box<dyn TraceSink> = Box::new(v.clone());
        sink.record(SimTime(5), 1, &ev(0));
        sink.record(SimTime(9), 2, &ev(1));
        assert!(!sink.wants_stop());
        let report = v.finish(meta()).unwrap();
        assert!(report.is_equivalent());
        assert_eq!(report.events_matched, 2);
        assert!(report.to_string().contains("zero divergence"));
    }

    #[test]
    fn payload_fork_is_reported_with_context() {
        let trace = record(&[(5, 1, ev(0)), (9, 2, ev(1))]);
        let v = Verifier::new(&trace);
        let mut sink: Box<dyn TraceSink> = Box::new(v.clone());
        sink.record(SimTime(5), 1, &ev(0));
        sink.record(SimTime(9), 2, &ev(42)); // forked payload
        assert!(sink.wants_stop(), "must ask the engine to stop");
        let report = v.finish(meta()).unwrap();
        assert!(!report.is_equivalent());
        let d = report.divergence.as_ref().unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(report.events_matched, 1);
        let text = report.to_string();
        assert!(text.contains("poll42"), "{text}");
        assert!(text.contains("payload differs"), "{text}");
    }

    #[test]
    fn extra_replay_events_diverge() {
        let trace = record(&[(5, 1, ev(0))]);
        let v = Verifier::new(&trace);
        let mut sink: Box<dyn TraceSink> = Box::new(v.clone());
        sink.record(SimTime(5), 1, &ev(0));
        sink.record(SimTime(6), 2, &ev(1));
        let report = v.finish(meta()).unwrap();
        let d = report.divergence.unwrap();
        assert!(d.expected.is_none());
        assert!(d.actual.is_some());
    }

    #[test]
    fn missing_replay_events_diverge_at_finish() {
        let trace = record(&[(5, 1, ev(0)), (9, 2, ev(1))]);
        let v = Verifier::new(&trace);
        let mut sink: Box<dyn TraceSink> = Box::new(v.clone());
        sink.record(SimTime(5), 1, &ev(0));
        let report = v.finish(meta()).unwrap();
        let d = report.divergence.as_ref().unwrap();
        assert_eq!(d.index, 1);
        assert!(d.actual.is_none());
        assert_eq!(report.events_unreached, 1);
    }

    #[test]
    fn time_fork_names_the_times() {
        let trace = record(&[(5, 1, ev(0))]);
        let v = Verifier::new(&trace);
        let mut sink: Box<dyn TraceSink> = Box::new(v.clone());
        sink.record(SimTime(500_000), 1, &ev(0));
        let report = v.finish(meta()).unwrap();
        assert!(report.to_string().contains("time forked"));
    }
}
