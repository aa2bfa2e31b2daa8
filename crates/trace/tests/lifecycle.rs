//! The recorder's worker thread: started late, always joined.
//!
//! The recorder seals blocks on a worker thread, so it now owns a resource
//! whose lifetime is worth pinning: a recorder that is dropped without
//! `finish` (an aborted replay, an unwinding run) must not leave its
//! thread behind, and a recording shorter than a block must not start
//! one. (What the recorder and the readers *allocate* is pinned in
//! `tests/trace_v2.rs`, beside the counting allocator.)
//!
//! The checks read `Threads:` in `/proc/self/status`, which is the whole
//! process's, so they run inside one `#[test]`, in sequence: a second
//! test function would be a second libtest thread starting or ending
//! mid-measurement.

use lockss_core::trace::{Label, MsgKind, TraceEvent, TraceSink};
use lockss_sim::SimTime;
use lockss_trace::{Recorder, TraceMeta};

/// The process's thread count, where procfs says.
fn threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// [`threads`], given a moment to settle: `join` returns when the thread
/// has signalled its exit, a hair before the kernel drops it from the
/// count. A thread that was never joined stays, and still fails.
fn threads_once_settled(expected: u64) -> Option<u64> {
    for _ in 0..2_000 {
        if threads() == Some(expected) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    threads()
}

fn meta() -> TraceMeta {
    TraceMeta {
        scenario: "lifecycle".into(),
        scale: "quick".into(),
        seed: 1,
        run_length_ms: 1_000,
    }
}

/// Event `i` of a stream whose every third event carries a label.
fn event(i: u64) -> TraceEvent {
    if i.is_multiple_of(3) {
        TraceEvent::AdversaryAction {
            channel: i % 4,
            label: Label::ALL[(i % 10) as usize],
            magnitude: i,
        }
    } else {
        TraceEvent::MessageSend {
            from: (i % 97) as u32,
            to: (i % 89) as u32,
            kind: MsgKind::Vote,
            au: 0,
            poll: i / 500,
            suppressed: false,
        }
    }
}

fn push(sink: &mut Recorder, range: std::ops::Range<u64>) {
    for i in range {
        sink.record(SimTime(i * 10), i, &event(i));
    }
}

#[test]
fn recorders_start_their_worker_late_and_always_join_it() {
    unfinished_recorders_stop_their_worker();
    a_recording_shorter_than_a_block_spawns_no_thread();
}

/// 1,000 recorders with a live worker, dropped without `finish` — plainly,
/// and from a panic unwinding through the recording thread.
fn unfinished_recorders_stop_their_worker() {
    let Some(before) = threads() else { return };
    let mut spawned = false;
    for round in 0..1_000u64 {
        let recorder = Recorder::with_block_events(&meta(), 4);
        let mut sink = recorder.clone();
        push(&mut sink, 0..4);
        spawned |= threads() > Some(before);
        if round.is_multiple_of(2) {
            // Blocks still queued when the last handle goes.
            push(&mut sink, 4..30);
            drop(sink);
            drop(recorder);
        } else {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _held = recorder;
                push(&mut sink, 4..9);
                std::panic::resume_unwind(Box::new("the run aborts"));
            }));
            assert!(unwound.is_err());
        }
    }
    assert!(spawned, "a filled block starts the seal worker");
    assert_eq!(
        threads_once_settled(before),
        Some(before),
        "every worker was joined"
    );
}

fn a_recording_shorter_than_a_block_spawns_no_thread() {
    let Some(before) = threads() else { return };
    let recorder = Recorder::with_block_events(&meta(), 100);
    push(&mut recorder.clone(), 0..99);
    assert_eq!(threads(), Some(before), "no block has filled");
    assert_eq!(recorder.seal_stats().blocks_sealed, 0);
    let stats_handle = recorder.clone();
    let trace = recorder.finish();
    assert_eq!(threads(), Some(before), "sealed on the calling thread");
    assert_eq!((trace.events(), trace.blocks().len()), (99, 1));
    assert_eq!(stats_handle.seal_stats().blocks_sealed, 1);
    assert_eq!(stats_handle.seal_stats().blocked_ns, 0);
}
