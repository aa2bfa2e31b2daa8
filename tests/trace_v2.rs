//! Acceptance tests for the block-columnar `LTRC2` trace wire.
//!
//! Five properties pin the format: (1) seeded-random event streams
//! round-trip byte-exactly through the columnar codec at any block
//! budget; (2) tampering — a corrupted block body, a lying frame
//! length, a flipped byte, a chopped tail — yields *distinct* accurate
//! diagnostics; (3) a re-sealed file whose numbers lie (overflowing
//! counts, lengths and deltas, a promised million-block index) is an
//! `Err`, never a panic or an allocation sized by the lie; (4) reading
//! a legacy `LTRC1` file imports it to exactly the directly recorded
//! LTRC2 bytes, preserving every statistic and shrinking the file;
//! (5) the parallel analytics (stats, diff, export) render
//! byte-identical output at any thread count, on real scenario traces;
//! (6) in steady state the recorder allocates per block, not per event,
//! and a pass over a trace makes no large allocation once its buffers
//! are sized.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use lockss::core::trace::{AdmissionVerdict, MsgKind, PollConclusion, TraceEvent, TraceSink};
use lockss::crypto::sha256;
use lockss::experiments::runner::{run, RunOptions};
use lockss::experiments::scenario::Scenario;
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::sim::{Duration, SimTime};
use lockss::trace::columnar::put_index;
use lockss::trace::wire::put_varint;
use lockss::trace::{
    diff_traces_threaded, export_csv, for_each_block, trace_stats, trace_stats_threaded,
    AggregateStats, BlockEntry, Recorder, RecorderV1, Trace, TraceError, TraceMeta, TraceRecord,
    TraceWire,
};

fn meta() -> TraceMeta {
    TraceMeta {
        scenario: "x".into(),
        scale: "q".into(),
        seed: 1,
        run_length_ms: 1000,
    }
}

/// Deterministic splitmix64 stream for the property sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One pseudo-random event covering every kind and payload codec.
fn random_event(rng: &mut Rng) -> TraceEvent {
    let r = |rng: &mut Rng, m: u64| (rng.next() % m) as u32;
    match rng.next() % 13 {
        0 => TraceEvent::PollStart {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
        },
        1 => TraceEvent::PollOutcome {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
            conclusion: match rng.next() % 4 {
                0 => PollConclusion::Win,
                1 => PollConclusion::Loss,
                2 => PollConclusion::Inconclusive,
                _ => PollConclusion::Inquorate,
            },
            votes: r(rng, 20),
        },
        2 => TraceEvent::MessageSend {
            from: r(rng, 100),
            to: r(rng, 100),
            kind: match rng.next() % 6 {
                0 => MsgKind::Poll,
                1 => MsgKind::PollAck,
                2 => MsgKind::PollProof,
                3 => MsgKind::Vote,
                4 => MsgKind::RepairRequest,
                _ => MsgKind::Repair,
            },
            au: r(rng, 4),
            poll: rng.next() % 1000,
            suppressed: rng.next().is_multiple_of(5),
        },
        3 => TraceEvent::Admission {
            peer: r(rng, 100),
            poller: rng.next() % 100,
            verdict: match rng.next() % 5 {
                0 => AdmissionVerdict::Admitted,
                1 => AdmissionVerdict::AdmittedIntroduced,
                2 => AdmissionVerdict::RandomDrop,
                3 => AdmissionVerdict::Refractory,
                _ => AdmissionVerdict::RateLimited,
            },
        },
        4 => TraceEvent::Damage {
            peer: r(rng, 100),
            au: r(rng, 4),
            block: rng.next() % 50,
            was_intact: rng.next().is_multiple_of(2),
        },
        5 => TraceEvent::Repair {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
            block: rng.next() % 50,
            intact_after: rng.next().is_multiple_of(2),
        },
        6 => TraceEvent::AdversaryTimer {
            channel: rng.next() % 8,
            tag: rng.next() % 1000,
        },
        7 => TraceEvent::AdversaryAction {
            channel: rng.next() % 8,
            label: format!("attack/{}", rng.next() % 5),
            magnitude: rng.next() % 10_000,
        },
        8 => TraceEvent::PeerJoin { peer: r(rng, 100) },
        9 => TraceEvent::PhaseMark {
            label: format!("phase-{}", rng.next() % 3),
        },
        10 => TraceEvent::Compromise {
            peer: r(rng, 100),
            corrupted: rng.next() % 50,
        },
        11 => TraceEvent::Cure {
            peer: r(rng, 100),
            residual: rng.next() % 50,
        },
        _ => TraceEvent::PoisonedRepair {
            peer: r(rng, 100),
            au: r(rng, 4),
            poll: rng.next() % 1000,
            block: rng.next() % 50,
            server: r(rng, 100),
        },
    }
}

/// `n` random records with monotone time/ordinal (the sink contract).
fn random_stream(seed: u64, n: u64) -> Vec<TraceRecord> {
    let mut rng = Rng(seed);
    let mut at = 0u64;
    let mut seq = 0u64;
    (0..n)
        .map(|_| {
            at += rng.next() % 100_000;
            seq += 1 + rng.next() % 3;
            TraceRecord {
                at: SimTime(at),
                seq,
                event: random_event(&mut rng),
            }
        })
        .collect()
}

fn record_v2(records: &[TraceRecord], budget: usize) -> Trace {
    let rec = Recorder::with_block_events(&meta(), budget);
    let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
    for r in records {
        sink.record(r.at, r.seq, &r.event);
    }
    rec.finish()
}

/// The same stream through the legacy flat writer: an LTRC1 file's bytes.
fn record_v1(meta: &TraceMeta, records: &[TraceRecord]) -> Vec<u8> {
    let rec = RecorderV1::new(meta);
    let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
    for r in records {
        sink.record(r.at, r.seq, &r.event);
    }
    rec.finish()
}

#[test]
fn random_event_streams_roundtrip_across_block_budgets() {
    let _shared = WHOLE_PROCESS.read().expect("no writer panics holding it");
    for seed in [1, 2, 3] {
        let records = random_stream(seed, 2000);
        let mut rendered = Vec::new();
        for budget in [1, 7, 1000, 65_536] {
            let trace = record_v2(&records, budget);
            assert_eq!(trace.wire(), TraceWire::V2);
            assert_eq!(trace.events(), 2000, "budget {budget}");
            // Validation survives a full serialize → parse round-trip.
            let back = Trace::from_bytes(trace.as_bytes().to_vec()).expect("revalidates");
            assert_eq!(
                back.decode_all().expect("decodes"),
                records,
                "seed {seed} budget {budget}"
            );
            rendered.push(format!("{}", trace_stats(&trace).expect("stats")));
        }
        // Stats are a pure function of the record stream, not the blocking.
        assert!(
            rendered.windows(2).all(|w| w[0] == w[1]),
            "stats differ across block budgets (seed {seed})"
        );
        // The legacy writer agrees record-for-record.
        let v1 = Trace::from_bytes(record_v1(&meta(), &records)).expect("v1 imports");
        assert_eq!(v1.wire(), TraceWire::V1);
        assert_eq!(v1.decode_all().expect("v1 decodes"), records);
    }
}

/// Re-seals the outer SHA-256 after in-place tampering, so validation
/// reaches the layer under test instead of stopping at the file hash.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 32;
    let digest = sha256(&bytes[..body]);
    bytes[body..].copy_from_slice(&digest);
}

#[test]
fn tampered_traces_yield_distinct_diagnostics() {
    let _shared = WHOLE_PROCESS.read().expect("no writer panics holding it");
    // Small single-block trace: all varints under test are one byte.
    let records = random_stream(9, 3);
    let trace = record_v2(&records, 100);
    assert_eq!(trace.blocks().len(), 1);
    let entry = &trace.blocks()[0];
    assert!(entry.offset < 128 && entry.body_len < 120, "{entry:?}");

    // (1) Flipped body byte, outer hash NOT resealed: the file-level
    // integrity check fires first.
    let mut bytes = trace.as_bytes().to_vec();
    let body_start = entry.offset as usize + 2; // marker + 1-byte len varint
    bytes[body_start + 5] ^= 0xA5;
    let e1 = Trace::from_bytes(bytes.clone()).expect_err("seal must catch the flip");
    assert!(matches!(e1, TraceError::HashMismatch), "{e1}");

    // (2) Same flip with the outer hash resealed: structural validation
    // passes (the index is intact) but the per-block digest catches the
    // corruption at decode time, naming the block.
    reseal(&mut bytes);
    let forged = Trace::from_bytes(bytes).expect("structurally valid");
    let e2 = forged.decode_all().expect_err("block digest must catch it");
    assert!(
        matches!(e2, TraceError::BadBlockChecksum { block: 0 }),
        "{e2}"
    );
    assert_eq!(e2.to_string(), "block 0 checksum mismatch: block corrupt");
    // Stats and diff surface the same diagnostic instead of bad numbers.
    assert!(trace_stats(&forged).is_err());

    // (3) A frame that claims more bytes than the record region holds
    // (frame varint and index entry bumped consistently, resealed):
    // the truncated-block diagnostic, distinct from (2).
    let mut bytes = trace.as_bytes().to_vec();
    let frame_len_pos = entry.offset as usize + 1;
    assert_eq!(bytes[frame_len_pos] as u64, entry.body_len);
    bytes[frame_len_pos] += 4;
    let tail = bytes.len() - (8 + 8 + 32);
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[tail..tail + 8]);
    let index_offset = u64::from_le_bytes(raw) as usize;
    // Index layout: END, varint n_blocks (=1), varint offset, varint len.
    let index_len_pos = index_offset + 3;
    assert_eq!(bytes[index_len_pos] as u64, entry.body_len);
    bytes[index_len_pos] += 4;
    reseal(&mut bytes);
    let e3 = Trace::from_bytes(bytes).expect_err("frame overruns the region");
    assert!(
        matches!(e3, TraceError::TruncatedBlock { block: 0 }),
        "{e3}"
    );
    assert_eq!(e3.to_string(), "trace truncated inside block 0");

    // (4) A tail chopped below the minimum trailer size is a fourth
    // distinct diagnostic (a *partial* chop is caught by the seal, (1)).
    let mut bytes = trace.as_bytes().to_vec();
    bytes.truncate(40);
    let e4 = Trace::from_bytes(bytes).expect_err("chopped");
    assert!(matches!(e4, TraceError::Truncated), "{e4}");

    let msgs = [
        e1.to_string(),
        e2.to_string(),
        e3.to_string(),
        e4.to_string(),
    ];
    for i in 0..msgs.len() {
        for j in i + 1..msgs.len() {
            assert_ne!(msgs[i], msgs[j], "diagnostics must be distinct");
        }
    }
}

/// Forwards to the system allocator, remembering the largest single
/// request each thread has made, so a test can assert that rejecting a
/// hostile file never reserved memory on the strength of a number in it;
/// and counting every thread's requests, and those of 1 MiB or more, for
/// the one test that measures code with worker threads of its own.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// Relaxed everywhere: statistics, publishing no other data.
static REQUESTS: AtomicU64 = AtomicU64::new(0);
static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);

const LARGE: usize = 1 << 20;

/// The process-wide counters mean something only while one test runs:
/// that test takes this for writing, every other test for reading.
static WHOLE_PROCESS: RwLock<()> = RwLock::new(());

fn note_request(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    REQUESTS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The only state touched is a
// const-initialised thread-local `Cell<usize>` and two atomics: no
// allocation, no destructor, no reentrancy into the allocator.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Loads and fully decodes `file`, which must fail — by returning an
/// error, not by panicking — without a single allocation request above
/// 1 MiB (every forged file here is under a kilobyte).
fn rejected(file: Vec<u8>) -> TraceError {
    assert!(file.len() < 1024);
    LARGEST.with(|l| l.set(0));
    let err = Trace::from_bytes(file)
        .and_then(|t| t.decode_all())
        .expect_err("a file whose numbers lie must be rejected");
    let largest = LARGEST.with(Cell::get);
    assert!(largest < 1 << 20, "{err}: one request of {largest} bytes");
    err
}

/// A trace file's bytes up to its end marker: magic, header, block frames.
fn block_region(trace: &Trace) -> &[u8] {
    let bytes = trace.as_bytes();
    let tail = bytes.len() - (8 + 8 + 32);
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[tail..tail + 8]);
    &bytes[..u64::from_le_bytes(raw) as usize]
}

/// Seals a block region under a forged index and trailer count.
fn seal_with_index(block_region: &[u8], index: &[BlockEntry], count: u64) -> Vec<u8> {
    let mut encoded = Vec::new();
    put_index(&mut encoded, index);
    seal_with_index_bytes(block_region, &encoded, count)
}

/// [`seal_with_index`] for an index that is not even well-formed.
fn seal_with_index_bytes(block_region: &[u8], index: &[u8], count: u64) -> Vec<u8> {
    let mut bytes = block_region.to_vec();
    let index_offset = bytes.len() as u64;
    bytes.push(0);
    bytes.extend_from_slice(index);
    bytes.extend_from_slice(&index_offset.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes.extend_from_slice(&[0; 32]);
    reseal(&mut bytes);
    bytes
}

/// Overwrites `body[at..]` with `patch`, then seals the one-block trace
/// again with the block's index digest brought up to date: the forgery
/// passes every integrity check and reaches the column decoder.
fn with_patched_body(trace: &Trace, at: usize, patch: &[u8]) -> Vec<u8> {
    let mut entry = trace.blocks()[0].clone();
    assert!(entry.body_len < 128, "one-byte frame length");
    let body_start = entry.offset as usize + 2;
    let mut region = block_region(trace).to_vec();
    assert_eq!(region.len(), body_start + entry.body_len as usize);
    region[body_start + at..body_start + at + patch.len()].copy_from_slice(patch);
    entry.digest = sha256(&region[body_start..]);
    seal_with_index(&region, &[entry], trace.events())
}

#[test]
fn files_whose_numbers_lie_are_errors_not_panics_or_allocations() {
    let _shared = WHOLE_PROCESS.read().expect("no writer panics holding it");
    let records = random_stream(9, 3);
    let trace = record_v2(&records, 100);
    let entry = trace.blocks()[0].clone();
    let region = block_region(&trace);
    // The forging helper is faithful: the honest index seals to the
    // honest file.
    assert_eq!(
        seal_with_index(region, trace.blocks(), 3),
        trace.as_bytes(),
        "seal_with_index must reproduce the recorder's layout"
    );

    // (1) The same block frame listed three times; the two extra entries
    // claim 2^63 events each, so a wrapping sum lands back on the trailer
    // count of 3.
    let big = BlockEntry {
        n_events: 1 << 63,
        ..entry.clone()
    };
    let e = rejected(seal_with_index(
        region,
        &[entry.clone(), big.clone(), big],
        3,
    ));
    assert!(matches!(e, TraceError::BadIndex("event count")), "{e}");

    // (2) A frame (and its index entry) claiming a body of u64::MAX
    // bytes: offset + length wraps to a small, plausible end.
    let at = entry.offset as usize;
    let mut forged = region[..at + 1].to_vec();
    put_varint(&mut forged, u64::MAX);
    forged.extend_from_slice(&region[at + 2..]);
    let huge = BlockEntry {
        body_len: u64::MAX,
        ..entry.clone()
    };
    let e = rejected(seal_with_index(&forged, &[huge], 3));
    assert!(matches!(e, TraceError::BadIndex("block frame")), "{e}");

    // (3) An index promising 2^40 blocks and delivering one.
    let mut one = Vec::new();
    put_index(&mut one, &[entry]);
    let mut lying = Vec::new();
    put_varint(&mut lying, 1 << 40);
    lying.extend_from_slice(&one[1..]); // past put_index's own count byte
    let e = rejected(seal_with_index_bytes(region, &lying, 3));
    assert!(matches!(e, TraceError::BadIndex(_)), "{e}");

    // (3b) One block of three events under an index entry — and a
    // trailer — claiming 2^40: the sums agree, the body does not.
    let inflated = BlockEntry {
        n_events: 1 << 40,
        ..trace.blocks()[0].clone()
    };
    let e = rejected(seal_with_index(region, &[inflated], 1 << 40));
    assert!(matches!(e, TraceError::BadIndex("event count")), "{e}");

    // (4) A time-delta column whose running sum overflows: three events
    // past 2^63 ms, so `base_at` is a ten-byte varint that u64::MAX
    // overwrites in place; the first non-zero delta then wraps.
    let late: Vec<TraceRecord> = (0..3)
        .map(|i| TraceRecord {
            at: SimTime((1 << 63) + i * 1000),
            seq: i,
            event: TraceEvent::PeerJoin { peer: i as u32 },
        })
        .collect();
    let trace = record_v2(&late, 100);
    assert_eq!(trace.decode_all().expect("honest"), late);
    let mut max = Vec::new();
    put_varint(&mut max, u64::MAX);
    assert_eq!(max.len(), 10);
    let e = rejected(with_patched_body(&trace, 1, &max)); // after n_events
    assert!(
        matches!(
            e,
            TraceError::BadColumn {
                block: 0,
                column: "time-delta"
            }
        ),
        "{e}"
    );

    // (5) A flag byte of 2. One MessageSend: its `suppressed` column is
    // the body's last, stored raw as `enc 0 · raw_len 1 · stored_len 1 ·
    // value`.
    let send = TraceRecord {
        at: SimTime(5),
        seq: 1,
        event: TraceEvent::MessageSend {
            from: 1,
            to: 2,
            kind: MsgKind::Vote,
            au: 0,
            poll: 3,
            suppressed: false,
        },
    };
    let trace = record_v2(&[send], 100);
    let body_len = trace.blocks()[0].body_len as usize;
    assert_eq!(
        block_region(&trace)[block_region(&trace).len() - 4..],
        [0, 1, 1, 0]
    );
    let e = rejected(with_patched_body(&trace, body_len - 1, &[2]));
    assert!(
        matches!(
            e,
            TraceError::UnknownCode {
                field: "flag",
                code: 2
            }
        ),
        "{e}"
    );

    // (6) The same overflow through the LTRC1 door: two records at
    // u64::MAX ms (deltas MAX, 0), the second delta bumped to 1.
    let at_max: Vec<TraceRecord> = (0..2)
        .map(|i| TraceRecord {
            at: SimTime(u64::MAX),
            seq: i,
            event: TraceEvent::PeerJoin { peer: 7 },
        })
        .collect();
    let mut v1 = record_v1(&meta(), &at_max);
    // Tail: kind · Δt · Δseq · peer | end marker · count · seal.
    let dt = v1.len() - (1 + 8 + 32) - 3;
    assert_eq!(v1[dt - 1..dt + 3], [9, 0, 1, 7]);
    v1[dt] = 1;
    reseal(&mut v1);
    let e = rejected(v1);
    assert!(matches!(e, TraceError::BadVarint), "{e}");
}

/// Event `i` of a stream whose every third event owns a string.
fn steady_event(i: u64) -> TraceEvent {
    if i.is_multiple_of(3) {
        TraceEvent::AdversaryAction {
            channel: i % 4,
            label: format!("flood/round-{}", i % 10),
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

fn requests() -> u64 {
    REQUESTS.load(Ordering::Relaxed)
}

fn large_requests() -> u64 {
    LARGE_REQUESTS.load(Ordering::Relaxed)
}

/// The recorder seals on a worker thread and the block passes decode on
/// theirs, so these two count every thread's requests — alone in the
/// process while they do.
#[test]
fn recorder_and_block_passes_reuse_their_buffers() {
    let _alone = WHOLE_PROCESS.write().expect("no writer panics holding it");
    steady_state_recording_allocates_per_block_not_per_event();
    block_passes_make_no_large_allocation_once_warm();
}

/// Eight blocks of 4,096 events, a third of them owning a string: after
/// the first block the recorder's allocations are those of a handful of
/// block buffers and the file's growth, nowhere near one per event.
fn steady_state_recording_allocates_per_block_not_per_event() {
    const BLOCK: u64 = 4_096;
    const BLOCKS: u64 = 8;
    // Built up front: the stream's own strings are not the recorder's.
    let events: Vec<TraceEvent> = (0..BLOCK * BLOCKS).map(steady_event).collect();
    let recorder = Recorder::with_block_events(&meta(), BLOCK as usize);
    let mut sink = recorder.clone();
    let mut after_first = 0;
    for (i, event) in (0u64..).zip(&events) {
        if i == BLOCK {
            after_first = requests();
        }
        sink.record(SimTime(i * 10), i, event);
    }
    let trace = recorder.finish();
    let made = requests() - after_first;
    assert_eq!(trace.blocks().len() as u64, BLOCKS);
    // A few hundred a block at most: up to four block buffers growing a
    // dozen columns each by doubling, the sealer's scratch, and (debug
    // builds only) the encoder's round-trip assertion. The parent's
    // `event.clone()` alone made one per string-owning event, 9,557 here.
    let bound = 256 * BLOCKS;
    assert!(
        made <= bound,
        "{made} allocation(s) after the first block for {} more events (bound {bound})",
        BLOCK * (BLOCKS - 1)
    );
}

/// Blocks wide enough that one decoded block is a multi-MiB buffer: a
/// pass makes its large allocations while the first `2 × threads` blocks
/// size the ring, and none after.
fn block_passes_make_no_large_allocation_once_warm() {
    const BLOCK: u64 = 32_768;
    const BLOCKS: u64 = 14;
    let recorder = Recorder::with_block_events(&meta(), BLOCK as usize);
    let mut sink = recorder.clone();
    for i in 0..BLOCK * BLOCKS - 5 {
        sink.record(SimTime(i * 10), i, &steady_event(i));
    }
    let trace = recorder.finish();
    assert_eq!(trace.blocks().len() as u64, BLOCKS);
    assert!(
        BLOCK as usize * std::mem::size_of::<TraceRecord>() >= LARGE,
        "one decoded block is a large allocation"
    );

    for threads in [1usize, 4] {
        let (mut folded, mut events) = (0usize, 0u64);
        let mut large_when_warm = None;
        for_each_block(&trace, threads, |block| {
            folded += 1;
            events += block.len() as u64;
            if folded == 2 * threads {
                large_when_warm = Some(large_requests());
            }
        })
        .expect("decodes");
        assert_eq!(events, trace.events());
        assert_eq!(
            Some(large_requests()),
            large_when_warm,
            "{threads} thread(s): a large allocation after the first {} blocks",
            2 * threads
        );
    }

    // The streaming reader likewise: everything large is the first block's.
    let mut reader = trace.records();
    assert!(reader.next_record().expect("decodes").is_some());
    let after_first_block = large_requests();
    let mut rest = 1u64;
    while reader.next_record().expect("decodes").is_some() {
        rest += 1;
    }
    assert_eq!(rest, trace.events());
    assert_eq!(large_requests(), after_first_block);
}

/// A real (shrunken) scenario run for the migration and analytics tests.
fn scenario_trace(name: &str, seed: u64) -> Trace {
    let entry = ScenarioRegistry::standard();
    let entry = entry.get(name).expect("registered");
    let mut s: Scenario = entry.build(Scale::Quick);
    s.cfg.n_peers = 30;
    s.cfg.n_aus = 2;
    s.run_length = Duration::from_days(150);
    let meta = TraceMeta {
        scenario: name.to_string(),
        scale: "quick".to_string(),
        seed,
        run_length_ms: s.run_length.as_millis(),
    };
    run(&s, seed, &RunOptions::record(&meta))
        .trace
        .expect("a recorded run seals a trace")
}

#[test]
fn converting_v1_preserves_stats_and_shrinks() {
    let _shared = WHOLE_PROCESS.read().expect("no writer panics holding it");
    let v2 = scenario_trace("baseline", 7);
    let records = v2.decode_all().expect("decodes");
    assert!(records.len() > 1000, "need a substantial stream");

    // The same stream through the legacy flat writer.
    let v1_bytes = record_v1(&v2.meta().expect("meta"), &records);
    let v1 = Trace::from_bytes(v1_bytes.clone()).expect("v1 imports");

    // Migration is canonical: importing the v1 recording reproduces the
    // directly-recorded v2 bytes exactly (same content hash, same blocks),
    // and what `trace convert` writes reads back as that recording.
    assert_eq!(v1.as_bytes(), v2.as_bytes());
    assert_eq!(v1.content_hash(), v2.content_hash());
    assert_eq!(v1.blocks(), v2.blocks());
    let converted = Trace::from_bytes(v1.as_bytes().to_vec()).expect("rereads");
    assert_eq!(converted, v2);

    // Every statistic survives the wire change; only the wire tag moves.
    let mut sv1 = trace_stats(&v1).expect("v1 stats");
    let sv2 = trace_stats(&converted).expect("v2 stats");
    assert_eq!(sv1.wire, TraceWire::V1);
    assert_eq!(sv2.wire, TraceWire::V2);
    sv1.wire = TraceWire::V2;
    assert_eq!(sv1.to_json(), sv2.to_json());

    // The columnar wire carries its seek index *and* still shrinks the
    // file substantially (the ≥4x target is asserted at campaign scale in
    // the bench suite; real quick-scale streams must manage ≥2x).
    let ratio = v1_bytes.len() as f64 / v2.as_bytes().len() as f64;
    assert!(
        ratio >= 2.0,
        "LTRC2 must be at least 2x smaller than LTRC1, got {ratio:.2}x \
         ({} -> {} bytes)",
        v1_bytes.len(),
        v2.as_bytes().len()
    );
}

#[test]
fn analytics_are_thread_invariant_on_real_traces() {
    let _shared = WHOLE_PROCESS.read().expect("no writer panics holding it");
    let a = scenario_trace("pipe-stoppage", 7);
    let b = scenario_trace("pipe-stoppage", 8);
    let stats1 = format!("{}", trace_stats_threaded(&a, 1).expect("stats"));
    let json1 = trace_stats_threaded(&a, 1).expect("stats").to_json();
    let diff1 = format!("{}", diff_traces_threaded(&a, &b, 1).expect("diff"));
    let csv1 = export_csv(&a, 1, 7).expect("export");
    for threads in [2, 3, 8] {
        assert_eq!(
            stats1,
            format!("{}", trace_stats_threaded(&a, threads).expect("stats")),
            "stats rendering must not depend on --threads"
        );
        assert_eq!(
            json1,
            trace_stats_threaded(&a, threads).expect("stats").to_json()
        );
        assert_eq!(
            diff1,
            format!("{}", diff_traces_threaded(&a, &b, threads).expect("diff")),
            "diff rendering must not depend on --threads"
        );
        assert_eq!(csv1, export_csv(&a, threads, 7).expect("export"));
    }
    // The JSON stats carry the wire tag (regression: it used to be absent).
    assert!(json1.contains("\"wire\": \"LTRC2\""), "{json1}");
    // Self-diff across wires: identical records, different files.
    let a1_bytes = record_v1(&a.meta().expect("meta"), &a.decode_all().expect("decodes"));
    assert_ne!(a1_bytes, a.as_bytes());
    let a1 = Trace::from_bytes(a1_bytes).expect("v1 imports");
    assert_eq!(a1.wire(), TraceWire::V1);
    let self_diff = diff_traces_threaded(&a, &a1, 4).expect("mixed-wire diff");
    assert!(self_diff.is_identical(), "{self_diff}");
}

#[test]
fn sweep_record_retains_per_seed_traces_that_aggregate() {
    let _shared = WHOLE_PROCESS.read().expect("no writer panics holding it");
    use lockss::experiments::sweep::{run_sweep_plan, SweepOptions, SweepReport};

    let entry = ScenarioRegistry::standard();
    let entry = entry.get("baseline").expect("registered");
    let mut s: Scenario = entry.build(Scale::Quick);
    s.cfg.n_peers = 25;
    s.cfg.n_aus = 1;
    s.run_length = Duration::from_days(60);
    let dir = std::env::temp_dir().join(format!("lockss-trace-v2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let seeds = [1u64, 2, 3];
    let report = run_sweep_plan(
        &s,
        SweepReport::new("baseline", "quick", seeds.to_vec()),
        &SweepOptions {
            threads: 2,
            record: Some(&dir),
            ..SweepOptions::default()
        },
    );
    assert_eq!(report.completed.len(), 3);

    let mut per_trace = Vec::new();
    for seed in seeds {
        let path = dir.join(format!("trace-baseline-s{seed}.bin"));
        let trace = Trace::read_from(&path)
            .unwrap_or_else(|e| panic!("sweep --record must write {}: {e}", path.display()));
        assert_eq!(trace.wire(), TraceWire::V2);
        let m = trace.meta().expect("meta");
        assert_eq!((m.seed, m.scenario.as_str()), (seed, "baseline"));
        assert!(trace.events() > 0, "seed {seed} recorded an empty stream");
        per_trace.push((
            format!("s{seed}"),
            trace_stats_threaded(&trace, 2).expect("stats"),
        ));
    }
    let total: u64 = per_trace.iter().map(|(_, s)| s.events).sum();
    let agg = AggregateStats::new(per_trace);
    assert_eq!(agg.total_events(), total);
    let rendered = format!("{agg}");
    assert!(
        rendered.contains("aggregate stats over 3 trace(s)"),
        "{rendered}"
    );
    assert!(agg.to_json().contains("\"aggregate\": true"));
    let _ = std::fs::remove_dir_all(&dir);
}
