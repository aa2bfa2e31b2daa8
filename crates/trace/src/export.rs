//! CSV timeline export: bucket a trace's event stream by simulated time
//! for plotting.
//!
//! One row per time bucket — total events, a column per event kind, and
//! the suppressed-send count — with empty buckets written as zero rows
//! so the timeline is dense and plots without gap handling. The export
//! replaces the old idea of a `run --timeline` table: recording is
//! cheap, so the timeline comes from the trace after the fact, at any
//! bucket width, instead of being a one-shot run flag.

use lockss_core::trace::{TraceEvent, TraceEventKind};

use crate::format::Trace;
use crate::parallel::for_each_block;
use crate::wire::TraceError;

const MS_PER_DAY: u64 = 24 * 3600 * 1000;

/// The most rows an export writes: 179 years at one-day buckets. A header
/// may claim a run of up to 2^64 ms, and even an honest `MAX_RUN_DAYS` run
/// would need ~5·10^10 one-day rows, so the row count is bounded by this,
/// not by the header.
pub(crate) const MAX_ROWS: u64 = 1 << 16;

#[derive(Clone)]
struct Row {
    events: u64,
    kinds: [u64; TraceEventKind::COUNT],
    suppressed: u64,
}

impl Row {
    fn zero() -> Row {
        Row {
            events: 0,
            kinds: [0; TraceEventKind::COUNT],
            suppressed: 0,
        }
    }
}

/// Renders the trace as a CSV timeline with `bucket_days`-wide rows
/// (clamped to at least one day), decoding blocks on up to `threads`
/// threads. Deterministic and thread-invariant: the fold runs in block
/// order no matter how decoding is scheduled.
///
/// The rows reach the last record's bucket, so a record stamped past the
/// header's run length — which no run emits, as a run stops before its
/// end — is a malformed time column, not a reason to allocate rows. A
/// run length that would take more than 65,536 rows (`MAX_ROWS`) is
/// refused before anything is decoded or allocated.
pub fn export_csv(trace: &Trace, threads: usize, bucket_days: u64) -> Result<String, TraceError> {
    let bucket_days = bucket_days.max(1);
    let bucket_ms = bucket_days * MS_PER_DAY;
    let run_length_ms = trace.meta()?.run_length_ms;
    let buckets = run_length_ms / bucket_ms + 1;
    if buckets > MAX_ROWS {
        return Err(TraceError::TooManyRows {
            buckets,
            bucket_days,
            min_bucket_days: run_length_ms / (MS_PER_DAY * MAX_ROWS) + 1,
        });
    }
    let mut rows: Vec<Row> = Vec::new();
    let (mut block, mut late_block) = (0, None);
    for_each_block(trace, threads, |chunk| {
        if chunk.iter().any(|rec| rec.at.as_millis() > run_length_ms) {
            late_block = late_block.or(Some(block));
        }
        block += 1;
        if late_block.is_some() {
            return;
        }
        for rec in chunk {
            let idx = (rec.at.as_millis() / bucket_ms) as usize;
            if rows.len() <= idx {
                rows.resize(idx + 1, Row::zero());
            }
            let row = &mut rows[idx];
            row.events += 1;
            row.kinds[rec.event.kind().code() as usize - 1] += 1;
            if let TraceEvent::MessageSend {
                suppressed: true, ..
            } = rec.event
            {
                row.suppressed += 1;
            }
        }
    })?;
    if let Some(block) = late_block {
        return Err(TraceError::BadColumn {
            block,
            column: "time-delta",
        });
    }

    use std::fmt::Write as _;
    let mut out = String::with_capacity(rows.len() * 64 + 256);
    out.push_str("day_start,day_end,events");
    for kind in TraceEventKind::ALL {
        let _ = write!(out, ",{}", kind.label());
    }
    out.push_str(",suppressed_sends\n");
    for (idx, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{},{},{}",
            idx as u64 * bucket_days,
            (idx as u64 + 1) * bucket_days,
            row.events
        );
        for count in row.kinds {
            let _ = write!(out, ",{count}");
        }
        let _ = writeln!(out, ",{}", row.suppressed);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Recorder, TraceMeta};
    use lockss_core::trace::{MsgKind, TraceSink};
    use lockss_sim::{Duration, SimTime};

    fn build_trace() -> Trace {
        let rec = Recorder::with_block_events(
            &TraceMeta {
                scenario: "x".into(),
                scale: "quick".into(),
                seed: 1,
                run_length_ms: Duration::from_days(100).as_millis(),
            },
            4,
        );
        let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
        let day = |d: u64| SimTime(d * MS_PER_DAY);
        // Day 0: a join. Day 2: a suppressed send. Day 35: another join
        // (leaves a zero row for days 10..20 and 20..30 at width 10).
        sink.record(day(0), 1, &TraceEvent::PeerJoin { peer: 1 });
        sink.record(
            day(2),
            2,
            &TraceEvent::MessageSend {
                from: 1,
                to: 2,
                kind: MsgKind::Vote,
                au: 0,
                poll: 0,
                suppressed: true,
            },
        );
        sink.record(day(35), 3, &TraceEvent::PeerJoin { peer: 2 });
        rec.finish()
    }

    #[test]
    fn csv_rows_bucket_and_stay_dense() {
        let trace = build_trace();
        let csv = export_csv(&trace, 1, 10).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + 4 buckets to day 40");
        assert!(lines[0].starts_with("day_start,day_end,events,poll-start,"));
        assert!(lines[0].ends_with(",suppressed_sends"));
        // Bucket 0 (days 0-10): 2 events, 1 suppressed.
        assert!(lines[1].starts_with("0,10,2,"));
        assert!(lines[1].ends_with(",1"));
        // Days 10-30 are zero rows, not missing rows.
        assert!(lines[2].starts_with("10,20,0,"));
        assert!(lines[3].starts_with("20,30,0,"));
        assert!(lines[4].starts_with("30,40,1,"));
        // Every row has the same column count.
        let cols = lines[0].split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
    }

    #[test]
    fn csv_is_thread_invariant() {
        let trace = build_trace();
        let one = export_csv(&trace, 1, 5).unwrap();
        for threads in [2, 6] {
            assert_eq!(one, export_csv(&trace, threads, 5).unwrap());
        }
    }

    #[test]
    fn zero_width_buckets_clamp_to_one_day() {
        let trace = build_trace();
        assert_eq!(
            export_csv(&trace, 1, 0).unwrap(),
            export_csv(&trace, 1, 1).unwrap()
        );
    }
}
