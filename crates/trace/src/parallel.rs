//! Deterministic block-parallel decoding.
//!
//! The trace analytics (`trace stats`, `trace diff`, `trace export`)
//! must produce byte-identical output at any thread count — the same
//! discipline the sweep fabric enforces for run summaries. The shape
//! that guarantees it: worker threads *decode* blocks concurrently
//! (claiming indices off an atomic cursor, parking results in a ring of
//! slots), while the caller's fold runs strictly sequentially in block
//! order over the decoded blocks, on the calling thread, as soon as each
//! is ready. Decoding is the expensive part (LZ + column reassembly);
//! the fold is a cheap single-threaded pass that overlaps it, so the
//! parallel speedup survives and the output ordering is trivial by
//! construction.
//!
//! Memory stays bounded and allocated up front: the ring holds
//! `2 × threads` record buffers (fewer for a shorter trace) that cycle
//! between the workers and the fold, each worker decodes through one
//! [`ColumnScratch`] of its own, and a worker may run at most a ring
//! ahead of the fold. The calling thread allocates the ring, each buffer
//! at the size of the largest block, before any worker starts; the
//! workers only fill it. A buffer a worker grew would come from its
//! thread's allocator arena, where it can stay resident after the pass
//! that freed it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::columnar::ColumnScratch;
use crate::format::{Trace, TraceRecord, DEFAULT_BLOCK_EVENTS};
use crate::lz::MAX_EXPANSION;
use crate::wire::TraceError;

/// One ring slot: the record buffer parked in it, and — once a worker
/// has decoded into that buffer — which block it holds.
#[derive(Default)]
struct Slot {
    records: Vec<TraceRecord>,
    decoded: Option<(usize, Result<(), TraceError>)>,
}

/// What the workers and the fold share under one lock. Block `i` lives
/// in slot `i % slots.len()`, which is free for it once block
/// `i - slots.len()` has been folded.
struct Ring {
    slots: Vec<Slot>,
    /// Blocks folded so far.
    folded: usize,
    /// The pass is over: the fold is done, has failed or is unwinding, or
    /// a worker has panicked. Whoever is waiting stops.
    stop: bool,
}

struct Shared {
    ring: Mutex<Ring>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("no holder of the ring lock panics")
    }

    /// Blocks until `ready` holds of the ring.
    fn wait_until(&self, ready: impl Fn(&Ring) -> bool) -> MutexGuard<'_, Ring> {
        let mut ring = self.lock();
        while !ready(&ring) {
            ring = self
                .changed
                .wait(ring)
                .expect("no holder of the ring lock panics");
        }
        ring
    }
}

/// Ends the pass when the fold returns or unwinds (`always`), or when a
/// worker unwinds, so neither side waits on a thread that is gone. Only a
/// build that unwinds (a test harness) reaches the unwinding cases; under
/// the release profile (`panic = "abort"`) a panic ends the process.
struct StopOnDrop<'a> {
    shared: &'a Shared,
    always: bool,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        if let Ok(mut ring) = self.shared.ring.lock() {
            ring.stop |= self.always || std::thread::panicking();
        }
        self.shared.changed.notify_all();
    }
}

/// The records each ring buffer is allocated for: the largest block's,
/// as its index entry counts them, bounded by what the block's bytes can
/// expand to and by [`DEFAULT_BLOCK_EVENTS`]. A block holds one kind byte
/// per event and no column expands by more than [`MAX_EXPANSION`], so the
/// index's count, a claim, never sizes a buffer past its bytes. A worker
/// grows a buffer only for a block larger than this, which a recording at
/// the default block budget never has.
fn ring_buffer_records(trace: &Trace) -> usize {
    let most = trace.blocks().iter().map(|b| {
        b.n_events
            .min(b.body_len.saturating_mul(MAX_EXPANSION as u64))
            .min(DEFAULT_BLOCK_EVENTS as u64)
    });
    most.max().unwrap_or(0) as usize
}

/// Runs `fold` over the decoded records of every block of `trace` in
/// block order, decoding blocks on up to `threads` worker threads. The
/// fold sees blocks exactly in block order regardless of thread count;
/// with one thread (or one block) no threads are spawned at all.
pub fn for_each_block<F>(trace: &Trace, threads: usize, mut fold: F) -> Result<(), TraceError>
where
    F: FnMut(&[TraceRecord]),
{
    let n = trace.blocks().len();
    if threads <= 1 || n <= 1 {
        let mut scratch = ColumnScratch::default();
        let mut records = Vec::new();
        for block in 0..n {
            records.clear();
            trace.decode_block_into(block, &mut scratch, &mut records)?;
            fold(&records);
        }
        return Ok(());
    }

    let workers = threads.min(n);
    // A ring longer than the trace would hold buffers no block fills.
    let ring_len = (workers * 2).min(n);
    let capacity = ring_buffer_records(trace);
    let shared = Shared {
        ring: Mutex::new(Ring {
            slots: (0..ring_len)
                .map(|_| Slot {
                    records: Vec::with_capacity(capacity),
                    decoded: None,
                })
                .collect(),
            folded: 0,
            stop: false,
        }),
        changed: Condvar::new(),
    };
    let cursor = AtomicUsize::new(0);
    let decode_blocks = || {
        let _stop_if_panicking = StopOnDrop {
            shared: &shared,
            always: false,
        };
        let mut scratch = ColumnScratch::default();
        loop {
            // Relaxed: the cursor only hands out indices; the slots are
            // published under the ring lock.
            let block = cursor.fetch_add(1, Ordering::Relaxed);
            if block >= n {
                return;
            }
            let mut ring = shared.wait_until(|r| r.stop || block < r.folded + ring_len);
            if ring.stop {
                return;
            }
            let mut records = std::mem::take(&mut ring.slots[block % ring_len].records);
            drop(ring);
            records.clear();
            let decoded = trace.decode_block_into(block, &mut scratch, &mut records);
            shared.lock().slots[block % ring_len] = Slot {
                records,
                decoded: Some((block, decoded)),
            };
            shared.changed.notify_all();
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(decode_blocks);
        }
        let _stop = StopOnDrop {
            shared: &shared,
            always: true,
        };
        for block in 0..n {
            let is_parked = |slot: &Slot| matches!(slot.decoded, Some((b, _)) if b == block);
            let mut ring = shared.wait_until(|r| r.stop || is_parked(&r.slots[block % ring_len]));
            // Only the fold's own exit and a worker's panic set `stop`.
            if ring.stop {
                drop(ring);
                panic!("a trace decode worker panicked");
            }
            let Slot { records, decoded } = std::mem::take(&mut ring.slots[block % ring_len]);
            drop(ring);
            decoded.expect("parked").1?;
            fold(&records);
            let mut ring = shared.lock();
            ring.slots[block % ring_len].records = records;
            ring.folded = block + 1;
            drop(ring);
            shared.changed.notify_all();
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Recorder, TraceMeta};
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
            for_each_block(&trace, threads, |chunk| all.extend_from_slice(chunk)).unwrap();
            all
        };
        let one = collect(1);
        assert_eq!(one.len(), 1000);
        assert_eq!(one, collect(4));
        assert_eq!(one, collect(9));
        assert_eq!(one, trace.decode_all().unwrap());
    }

    #[test]
    fn more_threads_than_blocks_fold_once_per_block() {
        // More than one default block's worth: two real blocks for eight
        // workers to claim.
        let n = crate::format::DEFAULT_BLOCK_EVENTS as u64 + 50;
        let recorder = Recorder::new(&meta());
        emit(&mut recorder.clone(), n);
        let trace = recorder.finish();
        assert_eq!(trace.blocks().len(), 2);
        let mut chunks = Vec::new();
        for_each_block(&trace, 8, |chunk| chunks.push(chunk.to_vec())).unwrap();
        assert_eq!(chunks.len(), 2, "one fold call per block, in block order");
        let all = chunks.concat();
        assert_eq!(all.len() as u64, n);
        assert_eq!(all, trace.decode_all().unwrap());
    }
}
