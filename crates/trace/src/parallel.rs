//! Deterministic block-parallel decoding.
//!
//! The trace analytics (`trace stats`, `trace diff`, `trace export`)
//! must produce byte-identical output at any thread count — the same
//! discipline the sweep fabric enforces for run summaries. The shape
//! that guarantees it: worker threads *decode* blocks concurrently
//! (claiming indices off an atomic cursor, parking results in
//! per-block slots), while the caller's fold runs strictly
//! sequentially in block order over the decoded chunks. Decoding is
//! the expensive part (LZ + column reassembly); the fold is a cheap
//! single-threaded pass, so the parallel speedup survives and the
//! output ordering is ordering-trivial by construction.
//!
//! Memory stays bounded: blocks are decoded in chunks of `2 × threads`
//! and folded before the next chunk starts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::format::{Trace, TraceRecord};
use crate::wire::TraceError;

/// A parked decode result: workers fill slots, the fold drains them in
/// block order.
type DecodedSlot = Mutex<Option<Result<Vec<TraceRecord>, TraceError>>>;

/// Runs `fold` over every record chunk of `trace` in block order,
/// decoding blocks on up to `threads` worker threads. The fold sees
/// chunks exactly in block order regardless of thread count; with one
/// thread (or one block) no threads are spawned at all.
pub fn for_each_block<F>(trace: &Trace, threads: usize, mut fold: F) -> Result<(), TraceError>
where
    F: FnMut(Vec<TraceRecord>),
{
    let n = trace.blocks().len();
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            fold(trace.decode_block(i)?);
        }
        return Ok(());
    }

    let stride = threads * 2;
    let mut start = 0usize;
    while start < n {
        let end = (start + stride).min(n);
        let slots: Vec<DecodedSlot> = (start..end).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(start);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(end - start) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    let decoded = trace.decode_block(i);
                    *slots[i - start].lock().expect("slot lock") = Some(decoded);
                });
            }
        });
        for slot in slots {
            let decoded = slot
                .into_inner()
                .expect("slot lock")
                .expect("every block in the chunk was claimed");
            fold(decoded?);
        }
        start = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Recorder, TraceMeta};
    use crate::legacy::RecorderV1;
    use lockss_core::trace::{TraceEvent, TraceSink};
    use lockss_sim::SimTime;

    fn meta() -> TraceMeta {
        TraceMeta {
            scenario: "baseline".into(),
            scale: "quick".into(),
            seed: 3,
            run_length_ms: 10_000,
        }
    }

    fn emit(sink: &mut dyn TraceSink, n: u64) {
        for i in 0..n {
            sink.record(SimTime(i * 10), i, &TraceEvent::PeerJoin { peer: i as u32 });
        }
    }

    #[test]
    fn fold_order_is_thread_invariant() {
        let recorder = Recorder::with_block_events(&meta(), 16);
        emit(&mut recorder.clone(), 1000);
        let trace = recorder.finish();
        assert!(trace.blocks().len() > 10);

        let collect = |threads: usize| {
            let mut all = Vec::new();
            for_each_block(&trace, threads, |chunk| all.extend(chunk)).unwrap();
            all
        };
        let one = collect(1);
        assert_eq!(one.len(), 1000);
        assert_eq!(one, collect(4));
        assert_eq!(one, collect(9));
        assert_eq!(one, trace.decode_all().unwrap());
    }

    #[test]
    fn imported_v1_traces_fold_like_any_other() {
        // More than one block's worth, so the import has real blocks for
        // the workers to claim.
        let n = crate::format::DEFAULT_BLOCK_EVENTS as u64 + 50;
        let recorder = RecorderV1::new(&meta());
        emit(&mut recorder.clone(), n);
        let trace = Trace::from_bytes(recorder.finish()).unwrap();
        assert_eq!(trace.blocks().len(), 2);
        let mut chunks = Vec::new();
        for_each_block(&trace, 8, |chunk| chunks.push(chunk)).unwrap();
        assert_eq!(chunks.len(), 2, "one fold call per block, in block order");
        let all = chunks.concat();
        assert_eq!(all.len() as u64, n);
        assert_eq!(all, trace.decode_all().unwrap());
    }
}
