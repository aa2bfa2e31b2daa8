//! The trace stats pass: rebuild per-poll and per-phase timelines from a
//! recorded stream.
//!
//! The live metric counters condense a run as it executes and forget the
//! individual polls; the trace keeps everything, so this pass can answer
//! the questions the summaries cannot — how long polls actually ran, how
//! many invitations each needed, which phase concluded which polls, and
//! how many sends the adversary suppressed.
//!
//! The pass is push-based ([`StatsBuilder`]) so it composes with the
//! block-parallel decoder: blocks decode concurrently, the builder folds
//! them strictly in block order, and the result is byte-identical at any
//! thread count because the fold order never changes.

use lockss_core::trace::{AdmissionVerdict, MsgKind, TraceEvent, TraceEventKind};
use lockss_metrics::timeline::{PollTimeline, TimeBuckets, TimelineSummary};
use lockss_sim::json::{
    Layout::{Inline, Lines},
    Writer,
};
use lockss_sim::{Duration, FxHashMap, SimTime};

use crate::format::{Trace, TraceMeta, TraceRecord};
use crate::parallel::for_each_block;
use crate::wire::TraceError;

/// The version string of the stats JSON document (single and aggregate).
pub const FORMAT: &str = "lockss-trace-stats-v1";

/// The `wire` key of the JSON documents and column of the text renderings:
/// always the one trace wire, kept so `lockss-trace-stats-v1` documents
/// keep their shape.
const WIRE: &str = "LTRC2";

/// Admission verdict counts, indexed by verdict code.
type VerdictCounts = [u64; AdmissionVerdict::ALL.len()];

/// Bucket width for activity histograms (diffing aligns on these).
pub(crate) const BUCKET: Duration = Duration::from_days(30);

/// One phase of activity, split by the recorded phase marks.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSegment {
    /// The phase label (`"(pre)"` before the first mark).
    pub label: &'static str,
    /// When the phase began.
    pub start: SimTime,
    /// Events emitted during the phase.
    pub events: u64,
    /// Polls concluded during the phase.
    pub polls_concluded: u64,
}

/// Everything the stats pass derives from one trace.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// The trace's metadata.
    pub meta: TraceMeta,
    /// Total recorded events.
    pub events: u64,
    /// Simulated instant of the last event (ZERO when empty).
    pub last_event_at: SimTime,
    /// Events per kind, in kind-code order (zero counts included).
    pub kind_counts: Vec<(TraceEventKind, u64)>,
    /// One timeline per poll, in open order.
    pub polls: Vec<PollTimeline>,
    /// The condensed poll-timeline view.
    pub summary: TimelineSummary,
    /// Admission verdict counts, indexed by verdict code.
    pub admissions: VerdictCounts,
    /// Sends suppressed at the source (pipe stoppage).
    pub suppressed_sends: u64,
    /// Activity split by recorded phase marks (empty without marks).
    pub phases: Vec<PhaseSegment>,
    /// 30-day activity histogram over all events.
    pub(crate) buckets: TimeBuckets,
}

/// Incremental stats accumulator: push records in emission order, then
/// [`StatsBuilder::finish`]. One whole-trace pass and the block-order
/// parallel fold push the exact same sequence, so they produce the
/// exact same stats.
pub struct StatsBuilder {
    meta: TraceMeta,
    kind_counts: Vec<(TraceEventKind, u64)>,
    polls: Vec<PollTimeline>,
    poll_index: FxHashMap<u64, usize>,
    admissions: VerdictCounts,
    suppressed_sends: u64,
    phases: Vec<PhaseSegment>,
    buckets: TimeBuckets,
    events: u64,
    last_event_at: SimTime,
}

impl StatsBuilder {
    /// An empty accumulator for a trace with the given identity.
    pub fn new(meta: TraceMeta) -> StatsBuilder {
        StatsBuilder {
            meta,
            kind_counts: TraceEventKind::ALL.iter().map(|&k| (k, 0)).collect(),
            polls: Vec::new(),
            poll_index: FxHashMap::default(),
            admissions: VerdictCounts::default(),
            suppressed_sends: 0,
            phases: Vec::new(),
            buckets: TimeBuckets::new(BUCKET),
            events: 0,
            last_event_at: SimTime::ZERO,
        }
    }

    /// Folds one record into the accumulator.
    pub fn push(&mut self, rec: &TraceRecord) {
        self.events += 1;
        self.last_event_at = rec.at;
        self.buckets.add(rec.at);
        let kind = rec.event.kind();
        self.kind_counts[kind.code() as usize - 1].1 += 1;
        // Phase marks open their own segment below; every other event
        // counts into the segment currently open.
        if kind != TraceEventKind::PhaseMark {
            if let Some(seg) = self.phases.last_mut() {
                seg.events += 1;
            }
        }
        match &rec.event {
            TraceEvent::PollStart { peer, au, poll } => {
                self.poll_index.insert(*poll, self.polls.len());
                self.polls
                    .push(PollTimeline::open(*poll, *peer, *au, rec.at));
            }
            TraceEvent::PollOutcome {
                poll,
                conclusion,
                votes,
                ..
            } => {
                if let Some(&i) = self.poll_index.get(poll) {
                    self.polls[i].concluded = Some(rec.at);
                    self.polls[i].outcome = Some(conclusion.label());
                    self.polls[i].votes = *votes;
                }
                if let Some(seg) = self.phases.last_mut() {
                    seg.polls_concluded += 1;
                }
            }
            TraceEvent::MessageSend {
                kind: msg_kind,
                poll,
                suppressed,
                ..
            } => {
                if *suppressed {
                    self.suppressed_sends += 1;
                }
                if *msg_kind == MsgKind::Poll {
                    if let Some(&i) = self.poll_index.get(poll) {
                        self.polls[i].invites_sent += 1;
                    }
                }
            }
            TraceEvent::Admission { verdict, .. } => {
                self.admissions[verdict.code() as usize] += 1;
            }
            TraceEvent::Repair { poll, .. } => {
                if let Some(&i) = self.poll_index.get(poll) {
                    self.polls[i].repairs += 1;
                }
            }
            TraceEvent::PhaseMark { label } => {
                if self.phases.is_empty() && rec.at > SimTime::ZERO {
                    self.phases.push(PhaseSegment {
                        label: "(pre)",
                        start: SimTime::ZERO,
                        // Everything before this mark, this mark included
                        // in the new segment below.
                        events: self.events - 1,
                        polls_concluded: self.polls.iter().filter(|p| p.concluded.is_some()).count()
                            as u64,
                    });
                }
                self.phases.push(PhaseSegment {
                    label: label.label(),
                    start: rec.at,
                    events: 1, // the mark itself
                    polls_concluded: 0,
                });
            }
            _ => {}
        }
    }

    /// Seals the accumulator into [`TraceStats`].
    pub fn finish(self) -> TraceStats {
        let summary = TimelineSummary::from_polls(&self.polls);
        TraceStats {
            meta: self.meta,
            events: self.events,
            last_event_at: self.last_event_at,
            kind_counts: self.kind_counts,
            polls: self.polls,
            summary,
            admissions: self.admissions,
            suppressed_sends: self.suppressed_sends,
            phases: self.phases,
            buckets: self.buckets,
        }
    }
}

/// Derives [`TraceStats`] from a trace with a single-threaded pass.
pub fn trace_stats(trace: &Trace) -> Result<TraceStats, TraceError> {
    trace_stats_threaded(trace, 1)
}

/// Derives [`TraceStats`] decoding blocks on up to `threads` threads.
/// The result — down to the rendered bytes — is identical at any thread
/// count: decoding parallelizes, the fold stays in block order.
pub fn trace_stats_threaded(trace: &Trace, threads: usize) -> Result<TraceStats, TraceError> {
    let mut builder = StatsBuilder::new(trace.meta()?);
    for_each_block(trace, threads, |chunk| {
        for rec in chunk {
            builder.push(rec);
        }
    })?;
    Ok(builder.finish())
}

impl TraceStats {
    /// The count recorded for `kind`.
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.kind_counts[kind.code() as usize - 1].1
    }

    /// Renders the stats as a machine-readable JSON document (strings
    /// escaped by the workspace's own [`lockss_sim::json`] grammar, the
    /// same one that parses it back). Field order is fixed, so the same
    /// trace always renders the same bytes.
    pub fn to_json(&self) -> String {
        let (mut w, s) = (Writer::new(), &self.summary);
        w.object(Lines)
            .field("format", FORMAT)
            .field("wire", WIRE)
            .key("meta")
            .object(Inline)
            .field("scenario", &self.meta.scenario)
            .field("scale", &self.meta.scale)
            .field("seed", self.meta.seed)
            .field("run_length_ms", self.meta.run_length_ms)
            .end()
            .field("events", self.events)
            .field("last_event_day", self.last_event_at.as_days_f64());
        write_kinds(&mut w, &self.kind_counts);
        w.key("polls")
            .object(Inline)
            .field("started", s.polls_started)
            .field("concluded", s.polls_concluded)
            .field("wins", s.wins)
            .field("losses", s.losses)
            .field("inconclusive", s.inconclusive)
            .field("inquorate", s.inquorate)
            .field(
                "mean_duration_days",
                s.mean_poll_duration.map(|d| d.as_days_f64()),
            )
            .field("mean_votes", s.mean_votes)
            .field("mean_invites", s.mean_invites)
            .field("repairs", s.repairs)
            .end();
        write_admissions(&mut w, &self.admissions);
        w.field("suppressed_sends", self.suppressed_sends)
            .key("phases")
            .array(Lines);
        for seg in &self.phases {
            w.object(Inline)
                .field("label", seg.label)
                .field("start_day", seg.start.as_days_f64())
                .field("events", seg.events)
                .field("polls_concluded", seg.polls_concluded)
                .end();
        }
        w.end().end().finish() + "\n"
    }
}

/// Writes the `kinds` count object, in kind-code order.
fn write_kinds(w: &mut Writer, kinds: &[(TraceEventKind, u64)]) {
    w.key("kinds").object(Inline);
    for (kind, count) in kinds {
        w.field(kind.label(), count);
    }
    w.end();
}

/// Writes the `admissions` count object, in verdict-code order.
fn write_admissions(w: &mut Writer, admissions: &VerdictCounts) {
    w.key("admissions").object(Inline);
    for (verdict, count) in AdmissionVerdict::ALL.iter().zip(admissions) {
        w.field(verdict.label(), count);
    }
    w.end();
}

/// Writes the nonzero admission verdict counts as an indented section.
fn fmt_admissions(f: &mut std::fmt::Formatter<'_>, admissions: &VerdictCounts) -> std::fmt::Result {
    if admissions.iter().any(|&c| c > 0) {
        writeln!(f, "\nadmission verdicts:")?;
        for (verdict, &count) in AdmissionVerdict::ALL.iter().zip(admissions) {
            if count > 0 {
                writeln!(f, "  {:<20} {count}", verdict.label())?;
            }
        }
    }
    Ok(())
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "trace of {} [{WIRE}]", self.meta)?;
        writeln!(
            f,
            "{} event(s), last at day {:.1}",
            self.events,
            self.last_event_at.as_days_f64()
        )?;
        writeln!(f, "\nevents by kind:")?;
        for (kind, count) in &self.kind_counts {
            if *count > 0 {
                writeln!(f, "  {:<18} {count}", kind.label())?;
            }
        }
        let s = &self.summary;
        writeln!(f, "\npoll timelines:")?;
        writeln!(
            f,
            "  started {}, concluded {} ({} win / {} loss / {} inconclusive / {} inquorate)",
            s.polls_started, s.polls_concluded, s.wins, s.losses, s.inconclusive, s.inquorate
        )?;
        if let Some(d) = s.mean_poll_duration {
            writeln!(
                f,
                "  mean poll duration {:.1}d, mean votes {:.1}, mean invites {:.1}",
                d.as_days_f64(),
                s.mean_votes,
                s.mean_invites
            )?;
        }
        writeln!(f, "  repairs applied {}", s.repairs)?;
        fmt_admissions(f, &self.admissions)?;
        if self.suppressed_sends > 0 {
            writeln!(
                f,
                "\nsuppressed sends (pipe stoppage): {}",
                self.suppressed_sends
            )?;
        }
        if !self.phases.is_empty() {
            writeln!(f, "\nphases:")?;
            for seg in &self.phases {
                writeln!(
                    f,
                    "  from day {:>6.1}  {:<28} {} event(s), {} poll(s) concluded",
                    seg.start.as_days_f64(),
                    seg.label,
                    seg.events,
                    seg.polls_concluded
                )?;
            }
        }
        Ok(())
    }
}

/// Stats for a set of traces (a recorded sweep), one labelled row per
/// trace plus combined totals. Means are intentionally not aggregated —
/// they are per-run quantities; the per-trace rows keep them.
#[derive(Clone, Debug)]
pub struct AggregateStats {
    /// `(label, stats)` per trace, in the order given (the CLI passes
    /// paths in command-line order).
    pub traces: Vec<(String, TraceStats)>,
}

impl AggregateStats {
    /// Wraps per-trace stats for aggregate rendering.
    pub fn new(traces: Vec<(String, TraceStats)>) -> AggregateStats {
        AggregateStats { traces }
    }

    /// Total events across all traces.
    pub fn total_events(&self) -> u64 {
        self.traces.iter().map(|(_, s)| s.events).sum()
    }

    /// Combined per-kind counts, in kind-code order.
    pub fn total_kind_counts(&self) -> Vec<(TraceEventKind, u64)> {
        let mut totals: Vec<(TraceEventKind, u64)> =
            TraceEventKind::ALL.iter().map(|&k| (k, 0)).collect();
        for (_, s) in &self.traces {
            for (i, (_, count)) in s.kind_counts.iter().enumerate() {
                totals[i].1 += count;
            }
        }
        totals
    }

    /// Combined admission verdict counts, indexed by verdict code.
    pub fn total_admissions(&self) -> VerdictCounts {
        let mut totals = VerdictCounts::default();
        for (_, s) in &self.traces {
            for (i, c) in s.admissions.iter().enumerate() {
                totals[i] += c;
            }
        }
        totals
    }

    /// Combined suppressed-send count.
    pub fn total_suppressed_sends(&self) -> u64 {
        self.traces.iter().map(|(_, s)| s.suppressed_sends).sum()
    }

    /// Renders the aggregate as JSON: the same `lockss-trace-stats-v1`
    /// format with `"aggregate": true`, per-trace rows, and totals.
    /// Deterministic for a fixed input order.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Lines)
            .field("format", FORMAT)
            .field("aggregate", true)
            .key("traces")
            .array(Lines);
        for (label, s) in &self.traces {
            w.object(Inline)
                .field("path", label)
                .field("wire", WIRE)
                .field("scenario", &s.meta.scenario)
                .field("seed", s.meta.seed)
                .field("events", s.events)
                .field("polls_started", s.summary.polls_started)
                .field("polls_concluded", s.summary.polls_concluded)
                .field("wins", s.summary.wins)
                .field("losses", s.summary.losses)
                .field("suppressed_sends", s.suppressed_sends)
                .end();
        }
        w.end()
            .key("totals")
            .object(Lines)
            .field("traces", self.traces.len())
            .field("events", self.total_events());
        write_kinds(&mut w, &self.total_kind_counts());
        write_admissions(&mut w, &self.total_admissions());
        w.field("suppressed_sends", self.total_suppressed_sends())
            .end()
            .end()
            .finish()
            + "\n"
    }
}

impl std::fmt::Display for AggregateStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "aggregate stats over {} trace(s)", self.traces.len())?;
        writeln!(
            f,
            "\n  {:<40} {:>6} {:>12} {:>8} {:>8} {:>6}",
            "trace", "wire", "events", "polls", "wins", "supp"
        )?;
        for (label, s) in &self.traces {
            writeln!(
                f,
                "  {:<40} {:>6} {:>12} {:>8} {:>8} {:>6}",
                label,
                WIRE,
                s.events,
                s.summary.polls_concluded,
                s.summary.wins,
                s.suppressed_sends
            )?;
        }
        writeln!(f, "\ncombined events: {}", self.total_events())?;
        writeln!(f, "\nevents by kind:")?;
        for (kind, count) in self.total_kind_counts() {
            if count > 0 {
                writeln!(f, "  {:<18} {count}", kind.label())?;
            }
        }
        fmt_admissions(f, &self.total_admissions())?;
        let suppressed = self.total_suppressed_sends();
        if suppressed > 0 {
            writeln!(f, "\nsuppressed sends (pipe stoppage): {suppressed}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Recorder, TraceMeta};
    use lockss_core::trace::{Label, PollConclusion, TraceSink};

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + Duration::from_days(days)
    }

    fn build_trace() -> Trace {
        build_trace_with_budget(crate::format::DEFAULT_BLOCK_EVENTS)
    }

    fn build_trace_with_budget(budget: usize) -> Trace {
        let rec = Recorder::with_block_events(
            &TraceMeta {
                scenario: "x".into(),
                scale: "quick".into(),
                seed: 3,
                run_length_ms: Duration::from_days(200).as_millis(),
            },
            budget,
        );
        let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
        let mut seq = 0u64;
        let mut emit = |at: SimTime, e: TraceEvent| {
            seq += 1;
            sink.record(at, seq, &e);
        };
        emit(
            t(0),
            TraceEvent::PollStart {
                peer: 0,
                au: 0,
                poll: 0,
            },
        );
        for _ in 0..3 {
            emit(
                t(1),
                TraceEvent::MessageSend {
                    from: 0,
                    to: 2,
                    kind: MsgKind::Poll,
                    au: 0,
                    poll: 0,
                    suppressed: false,
                },
            );
        }
        emit(
            t(2),
            TraceEvent::Admission {
                peer: 2,
                poller: 0,
                verdict: AdmissionVerdict::Admitted,
            },
        );
        emit(
            t(3),
            TraceEvent::Repair {
                peer: 0,
                au: 0,
                poll: 0,
                block: 5,
                intact_after: true,
            },
        );
        emit(
            t(10),
            TraceEvent::PollOutcome {
                peer: 0,
                au: 0,
                poll: 0,
                conclusion: PollConclusion::Win,
                votes: 4,
            },
        );
        emit(
            t(40),
            TraceEvent::PhaseMark {
                label: Label::AdmissionFlood,
            },
        );
        emit(
            t(50),
            TraceEvent::PollStart {
                peer: 1,
                au: 0,
                poll: 1,
            },
        );
        emit(
            t(60),
            TraceEvent::MessageSend {
                from: 1,
                to: 3,
                kind: MsgKind::Poll,
                au: 0,
                poll: 1,
                suppressed: true,
            },
        );
        emit(
            t(80),
            TraceEvent::PollOutcome {
                peer: 1,
                au: 0,
                poll: 1,
                conclusion: PollConclusion::Inquorate,
                votes: 0,
            },
        );
        rec.finish()
    }

    #[test]
    fn stats_rebuild_poll_timelines() {
        let stats = trace_stats(&build_trace()).unwrap();
        assert_eq!(stats.events, 11);
        assert_eq!(stats.count(TraceEventKind::PollStart), 2);
        assert_eq!(stats.count(TraceEventKind::MessageSend), 4);
        assert_eq!(stats.polls.len(), 2);
        let p0 = &stats.polls[0];
        assert_eq!(p0.invites_sent, 3);
        assert_eq!(p0.repairs, 1);
        assert_eq!(p0.outcome, Some("win"));
        assert_eq!(p0.votes, 4);
        assert_eq!(p0.concluded, Some(t(10)));
        assert_eq!(stats.summary.wins, 1);
        assert_eq!(stats.summary.inquorate, 1);
        assert_eq!(stats.suppressed_sends, 1);
        assert_eq!(
            stats.admissions[AdmissionVerdict::Admitted.code() as usize],
            1
        );
    }

    #[test]
    fn stats_split_phases_with_a_pre_segment() {
        let stats = trace_stats(&build_trace()).unwrap();
        assert_eq!(stats.phases.len(), 2);
        assert_eq!(stats.phases[0].label, "(pre)");
        assert_eq!(stats.phases[0].events, 7);
        assert_eq!(stats.phases[0].polls_concluded, 1);
        assert_eq!(stats.phases[1].label, "admission-flood");
        assert_eq!(stats.phases[1].start, t(40));
        assert_eq!(stats.phases[1].events, 4);
        assert_eq!(stats.phases[1].polls_concluded, 1);
    }

    #[test]
    fn threaded_stats_render_identical_bytes_across_thread_counts() {
        // A tiny block budget forces many blocks even from 11 events, so
        // the parallel fold actually crosses block boundaries.
        let trace = build_trace_with_budget(3);
        assert!(trace.blocks().len() >= 3);
        let one = trace_stats_threaded(&trace, 1).unwrap();
        for threads in [2, 4, 7] {
            let many = trace_stats_threaded(&trace, threads).unwrap();
            assert_eq!(one.to_json(), many.to_json(), "threads={threads}");
            assert_eq!(one.to_string(), many.to_string(), "threads={threads}");
        }
        // And the block budget itself never changes the numbers.
        let whole = trace_stats(&build_trace()).unwrap();
        assert_eq!(one.to_json(), whole.to_json());
    }

    #[test]
    fn json_stats_parse_back_with_the_same_numbers() {
        let stats = trace_stats(&build_trace()).unwrap();
        let text = stats.to_json();
        let v = lockss_sim::json::parse(&text).unwrap();
        let f = v.as_object("stats").unwrap();
        let get = |k: &str| lockss_sim::json::get(f, k).unwrap();
        assert_eq!(get("format").as_str("format").unwrap(), FORMAT);
        assert_eq!(get("wire").as_str("wire").unwrap(), "LTRC2");
        assert_eq!(get("events").as_u64("events").unwrap(), 11);
        let kinds = get("kinds").as_object("kinds").unwrap();
        assert_eq!(
            lockss_sim::json::get(kinds, "poll-start")
                .unwrap()
                .as_u64("c")
                .unwrap(),
            2
        );
        let polls = get("polls").as_object("polls").unwrap();
        assert_eq!(
            lockss_sim::json::get(polls, "wins")
                .unwrap()
                .as_u64("w")
                .unwrap(),
            1
        );
        let phases = get("phases").as_array("phases").unwrap();
        assert_eq!(phases.len(), 2);
        let p1 = phases[1].as_object("phase").unwrap();
        assert_eq!(
            lockss_sim::json::get(p1, "label")
                .unwrap()
                .as_str("l")
                .unwrap(),
            "admission-flood"
        );
        // Deterministic: same trace, same bytes.
        assert_eq!(text, trace_stats(&build_trace()).unwrap().to_json());
    }

    #[test]
    fn display_names_the_load_bearing_numbers() {
        let text = trace_stats(&build_trace()).unwrap().to_string();
        assert!(text.contains("poll-start"), "{text}");
        assert!(text.contains("[LTRC2]"), "{text}");
        assert!(text.contains("1 win"), "{text}");
        assert!(text.contains("suppressed sends"), "{text}");
        assert!(text.contains("admission-flood"), "{text}");
    }

    #[test]
    fn aggregate_sums_and_renders_per_trace_rows() {
        let a = trace_stats(&build_trace()).unwrap();
        let b = trace_stats(&build_trace()).unwrap();
        let agg = AggregateStats::new(vec![("a.bin".into(), a), ("b.bin".into(), b)]);
        assert_eq!(agg.total_events(), 22);
        assert_eq!(agg.total_suppressed_sends(), 2);
        assert_eq!(agg.total_kind_counts()[0].1, 4, "poll starts");

        let text = agg.to_string();
        assert!(text.contains("a.bin"), "{text}");
        assert!(text.contains("combined events: 22"), "{text}");

        let json = agg.to_json();
        let v = lockss_sim::json::parse(&json).unwrap();
        let f = v.as_object("agg").unwrap();
        let get = |k: &str| lockss_sim::json::get(f, k).unwrap();
        assert_eq!(get("format").as_str("format").unwrap(), FORMAT);
        assert!(get("aggregate").as_bool("aggregate").unwrap());
        assert_eq!(get("traces").as_array("traces").unwrap().len(), 2);
        let totals = get("totals").as_object("totals").unwrap();
        assert_eq!(
            lockss_sim::json::get(totals, "events")
                .unwrap()
                .as_u64("events")
                .unwrap(),
            22
        );
    }
}
