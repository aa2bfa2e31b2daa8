//! Trace diffing: align two recorded runs and summarize where their
//! behaviors fork.
//!
//! Two traces of the same scenario at different seeds (or a baseline vs.
//! an attacked run of the same world) share structure but not bytes. The
//! diff reports three views at increasing altitude:
//!
//! 1. the **first fork** — the first record index where the streams
//!    disagree, with both records;
//! 2. **per-kind totals** — which event kinds the runs produced more or
//!    less of;
//! 3. **activity windows** — the 30-day window where the runs' event
//!    activity differs the most, which localizes *when* behavior forked
//!    even after the streams have long stopped aligning record-by-record.
//!
//! Fork-finding skips the identical prefix without decoding a byte of
//! it: the block encoder is deterministic and canonical, so two blocks
//! with equal index digests hold equal records. Only the first
//! differing block pair (and the tail past it) is decoded and compared
//! record-by-record. The stats
//! passes on both sides run block-parallel; the fold order is fixed, so
//! the rendered diff is byte-identical at any thread count.

use lockss_core::trace::TraceEventKind;
use lockss_metrics::timeline::TimelineSummary;

use crate::format::{Trace, TraceMeta, TraceRecord};
use crate::stats::{trace_stats_threaded, TraceStats};
use crate::wire::TraceError;

/// The first record index where two traces disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Fork {
    /// Zero-based record index.
    pub index: u64,
    /// Trace A's record there (`None`: A ended first).
    pub a: Option<TraceRecord>,
    /// Trace B's record there (`None`: B ended first).
    pub b: Option<TraceRecord>,
}

/// The condensed comparison of two traces.
#[derive(Clone, Debug)]
pub struct TraceDiff {
    /// Trace A's metadata.
    pub a_meta: TraceMeta,
    /// Trace B's metadata.
    pub b_meta: TraceMeta,
    /// Total events in trace A.
    pub a_events: u64,
    /// Total events in trace B.
    pub b_events: u64,
    /// Where the streams first disagree (`None`: byte-equivalent streams).
    pub first_fork: Option<Fork>,
    /// Per-kind totals `(kind, a count, b count)`, kinds with any activity.
    pub kind_counts: Vec<(TraceEventKind, u64, u64)>,
    /// Poll-timeline summaries of both sides.
    pub a_summary: TimelineSummary,
    /// Trace B's poll-timeline summary.
    pub b_summary: TimelineSummary,
    /// Suppressed sends in A / B.
    pub suppressed_sends: (u64, u64),
    /// The 30-day window with the widest activity gap, as
    /// `(window start day, window end day, a count − b count)`.
    pub widest_activity_gap: Option<(f64, f64, i64)>,
}

impl TraceDiff {
    /// True when the two streams are record-for-record identical.
    pub fn is_identical(&self) -> bool {
        self.first_fork.is_none() && self.a_events == self.b_events
    }
}

/// Compares two traces, decoding blocks on up to `threads` threads for
/// the stats passes. The result is identical at any thread count.
pub fn diff_traces_threaded(a: &Trace, b: &Trace, threads: usize) -> Result<TraceDiff, TraceError> {
    let first_fork = find_fork(a, b)?;
    let sa = trace_stats_threaded(a, threads)?;
    let sb = trace_stats_threaded(b, threads)?;
    Ok(summarize(sa, sb, first_fork))
}

/// Finds the first differing record. First skips every leading block
/// pair whose index digests match — equal digests mean equal bodies
/// mean equal records — and only decodes from the first differing pair
/// on.
fn find_fork(a: &Trace, b: &Trace) -> Result<Option<Fork>, TraceError> {
    let (ba, bb) = (a.blocks(), b.blocks());
    let mut skip = 0usize;
    let mut index = 0u64;
    while skip < ba.len() && skip < bb.len() && ba[skip].digest == bb[skip].digest {
        index += ba[skip].n_events;
        skip += 1;
    }
    let mut ra = a.records_from_block(skip);
    let mut rb = b.records_from_block(skip);
    loop {
        match (ra.next_record()?, rb.next_record()?) {
            (None, None) => return Ok(None),
            (a, b) if a == b => index += 1,
            (a, b) => {
                let (a, b) = (a.cloned(), b.cloned());
                return Ok(Some(Fork { index, a, b }));
            }
        }
    }
}

fn summarize(sa: TraceStats, sb: TraceStats, first_fork: Option<Fork>) -> TraceDiff {
    let kind_counts = TraceEventKind::ALL
        .iter()
        .map(|&k| (k, sa.count(k), sb.count(k)))
        .filter(|(_, ca, cb)| *ca > 0 || *cb > 0)
        .collect();
    let widest_activity_gap = sa.buckets.widest_gap(&sb.buckets).map(|(idx, delta)| {
        let (start, end) = sa.buckets.span(idx);
        (start.as_days_f64(), end.as_days_f64(), delta)
    });
    TraceDiff {
        a_meta: sa.meta,
        b_meta: sb.meta,
        a_events: sa.events,
        b_events: sb.events,
        first_fork,
        kind_counts,
        a_summary: sa.summary,
        b_summary: sb.summary,
        suppressed_sends: (sa.suppressed_sends, sb.suppressed_sends),
        widest_activity_gap,
    }
}

impl std::fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "trace A: {} ({} events)", self.a_meta, self.a_events)?;
        writeln!(f, "trace B: {} ({} events)", self.b_meta, self.b_events)?;
        match &self.first_fork {
            None => writeln!(f, "\nstreams are identical record-for-record")?,
            Some(fork) => {
                writeln!(f, "\nstreams fork at record #{}:", fork.index)?;
                match &fork.a {
                    Some(r) => writeln!(f, "  A: {r}")?,
                    None => writeln!(f, "  A: <ended>")?,
                }
                match &fork.b {
                    Some(r) => writeln!(f, "  B: {r}")?,
                    None => writeln!(f, "  B: <ended>")?,
                }
            }
        }
        writeln!(f, "\nevents by kind (A / B / Δ):")?;
        for (kind, ca, cb) in &self.kind_counts {
            writeln!(
                f,
                "  {:<18} {ca:>9} {cb:>9} {:>+8}",
                kind.label(),
                *ca as i64 - *cb as i64
            )?;
        }
        let (a, b) = (&self.a_summary, &self.b_summary);
        writeln!(f, "\npoll outcomes (A / B):")?;
        writeln!(
            f,
            "  win {}/{}  loss {}/{}  inconclusive {}/{}  inquorate {}/{}",
            a.wins,
            b.wins,
            a.losses,
            b.losses,
            a.inconclusive,
            b.inconclusive,
            a.inquorate,
            b.inquorate
        )?;
        if let (Some(da), Some(db)) = (a.mean_poll_duration, b.mean_poll_duration) {
            writeln!(
                f,
                "  mean poll duration {:.2}d / {:.2}d, mean votes {:.1} / {:.1}",
                da.as_days_f64(),
                db.as_days_f64(),
                a.mean_votes,
                b.mean_votes
            )?;
        }
        if self.suppressed_sends != (0, 0) {
            writeln!(
                f,
                "  suppressed sends {} / {}",
                self.suppressed_sends.0, self.suppressed_sends.1
            )?;
        }
        if let Some((start, end, delta)) = self.widest_activity_gap {
            writeln!(
                f,
                "\nwidest activity gap: days {start:.0}–{end:.0} ({delta:+} events A−B)"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Recorder, TraceMeta};
    use lockss_core::trace::{PollConclusion, TraceEvent, TraceSink};
    use lockss_sim::{Duration, SimTime};

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + Duration::from_days(days)
    }

    fn emit_polls(sink: &mut dyn TraceSink, polls: &[(u64, u64, PollConclusion)]) {
        let mut seq = 0;
        for (poll, start_day, conclusion) in polls {
            seq += 1;
            sink.record(
                t(*start_day),
                seq,
                &TraceEvent::PollStart {
                    peer: 0,
                    au: 0,
                    poll: *poll,
                },
            );
            seq += 1;
            sink.record(
                t(start_day + 3),
                seq,
                &TraceEvent::PollOutcome {
                    peer: 0,
                    au: 0,
                    poll: *poll,
                    conclusion: *conclusion,
                    votes: 5,
                },
            );
        }
    }

    fn meta_for(seed: u64) -> TraceMeta {
        TraceMeta {
            scenario: "baseline".into(),
            scale: "quick".into(),
            seed,
            run_length_ms: Duration::from_days(360).as_millis(),
        }
    }

    fn trace_with(polls: &[(u64, u64, PollConclusion)], seed: u64) -> Trace {
        trace_with_budget(polls, seed, crate::format::DEFAULT_BLOCK_EVENTS)
    }

    fn trace_with_budget(polls: &[(u64, u64, PollConclusion)], seed: u64, budget: usize) -> Trace {
        let rec = Recorder::with_block_events(&meta_for(seed), budget);
        emit_polls(&mut rec.clone(), polls);
        rec.finish()
    }

    #[test]
    fn identical_traces_diff_clean() {
        let a = trace_with(&[(0, 1, PollConclusion::Win)], 1);
        let b = trace_with(&[(0, 1, PollConclusion::Win)], 1);
        let d = diff_traces_threaded(&a, &b, 1).unwrap();
        assert!(d.is_identical());
        assert!(d.to_string().contains("identical record-for-record"));
    }

    #[test]
    fn forked_traces_report_the_fork_and_the_totals() {
        let a = trace_with(
            &[(0, 1, PollConclusion::Win), (1, 40, PollConclusion::Win)],
            1,
        );
        let b = trace_with(
            &[(0, 1, PollConclusion::Win), (1, 95, PollConclusion::Loss)],
            2,
        );
        let d = diff_traces_threaded(&a, &b, 1).unwrap();
        assert!(!d.is_identical());
        let fork = d.first_fork.as_ref().unwrap();
        assert_eq!(fork.index, 2, "first two records match");
        assert_eq!(d.a_summary.wins, 2);
        assert_eq!(d.b_summary.wins, 1);
        assert_eq!(d.b_summary.losses, 1);
        let (start, _end, delta) = d.widest_activity_gap.unwrap();
        // A's second poll lives in days 30-60, B's in days 90-120.
        assert!(start == 30.0 || start == 90.0);
        assert_eq!(delta.abs(), 2);
        let text = d.to_string();
        assert!(text.contains("fork at record #2"), "{text}");
        assert!(text.contains("poll-start"), "{text}");
    }

    #[test]
    fn prefix_trace_forks_at_the_end() {
        let a = trace_with(&[(0, 1, PollConclusion::Win)], 1);
        let b = trace_with(
            &[(0, 1, PollConclusion::Win), (1, 40, PollConclusion::Win)],
            1,
        );
        let d = diff_traces_threaded(&a, &b, 1).unwrap();
        let fork = d.first_fork.unwrap();
        assert_eq!(fork.index, 2);
        assert!(fork.a.is_none());
        assert!(fork.b.is_some());
    }

    #[test]
    fn digest_fast_path_matches_the_slow_path() {
        // Many small blocks with a late fork: the fast path skips the
        // aligned identical prefix by digest; mismatched budgets defeat
        // the digest alignment and force the full stream compare. Both
        // must find the same fork.
        let shared: Vec<(u64, u64, PollConclusion)> = (0..40)
            .map(|i| (i, i * 8 + 1, PollConclusion::Win))
            .collect();
        let mut forked = shared.clone();
        forked[35].2 = PollConclusion::Loss;

        let a_aligned = trace_with_budget(&shared, 1, 4);
        let b_aligned = trace_with_budget(&forked, 1, 4);
        assert!(a_aligned.blocks().len() > 10);
        let fast = diff_traces_threaded(&a_aligned, &b_aligned, 1).unwrap();

        let b_misaligned = trace_with_budget(&forked, 1, 7);
        let slow = diff_traces_threaded(&a_aligned, &b_misaligned, 1).unwrap();

        let fork_fast = fast.first_fork.unwrap();
        let fork_slow = slow.first_fork.unwrap();
        assert_eq!(fork_fast.index, 71, "poll 35's outcome record");
        assert_eq!(fork_fast.index, fork_slow.index);
        assert_eq!(fork_fast.a, fork_slow.a);
        assert_eq!(fork_fast.b, fork_slow.b);
    }

    #[test]
    fn threaded_diff_renders_identical_bytes_across_thread_counts() {
        let shared: Vec<(u64, u64, PollConclusion)> = (0..40)
            .map(|i| (i, i * 8 + 1, PollConclusion::Win))
            .collect();
        let mut forked = shared.clone();
        forked[20].2 = PollConclusion::Inquorate;
        let a = trace_with_budget(&shared, 1, 4);
        let b = trace_with_budget(&forked, 1, 4);
        let one = diff_traces_threaded(&a, &b, 1).unwrap().to_string();
        for threads in [2, 4, 7] {
            let many = diff_traces_threaded(&a, &b, threads).unwrap().to_string();
            assert_eq!(one, many, "threads={threads}");
        }
    }
}
