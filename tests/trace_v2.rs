//! Acceptance tests for the block-columnar `LTRC2` trace wire.
//!
//! Five properties pin the format: (1) seeded-random event streams
//! round-trip byte-exactly through the columnar codec at any block
//! budget; (2) tampering — a corrupted block body, a lying frame
//! length, a flipped byte, a chopped tail — yields *distinct* accurate
//! diagnostics; (3) a re-sealed file whose numbers lie (overflowing
//! counts, lengths and deltas, a promised million-block index), or a
//! well-sealed file of another wire, is an `Err`, never a panic or an
//! allocation sized by the lie; (4) the parallel analytics (stats,
//! diff, export) render byte-identical output at any thread count, on
//! real scenario traces; (5) in steady state the recorder allocates per
//! block, not per event, and a pass over a trace allocates per block, not
//! per event, and makes no large allocation once its buffers are sized;
//! the threaded passes' workers fill buffers the calling thread sized.
//! A decoded record is a 48-byte `Copy` value: its label is a declared
//! [`Label`], and a string the label table does not declare is an error.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};

use lockss::core::trace::{
    AdmissionVerdict, Label, MsgKind, PollConclusion, TraceEvent, TraceSink,
};
use lockss::crypto::sha256;
use lockss::experiments::runner::{run, RunOptions};
use lockss::experiments::scenario::{Scenario, MAX_RUN_DAYS};
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::sim::{Duration, SimTime};
use lockss::trace::columnar::put_index;
use lockss::trace::wire::put_varint;
use lockss::trace::{
    diff_traces_threaded, export_csv, for_each_block, trace_stats, trace_stats_threaded,
    AggregateStats, BlockEntry, Recorder, Trace, TraceError, TraceMeta, TraceRecord,
    DEFAULT_BLOCK_EVENTS,
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
            label: Label::ALL[(rng.next() % Label::ALL.len() as u64) as usize],
            magnitude: rng.next() % 10_000,
        },
        8 => TraceEvent::PeerJoin { peer: r(rng, 100) },
        9 => TraceEvent::PhaseMark {
            label: Label::ALL[(rng.next() % Label::ALL.len() as u64) as usize],
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
    record_with(&meta(), records, budget)
}

fn record_with(meta: &TraceMeta, records: &[TraceRecord], budget: usize) -> Trace {
    let rec = Recorder::with_block_events(meta, budget);
    let mut sink: Box<dyn TraceSink> = Box::new(rec.clone());
    for r in records {
        sink.record(r.at, r.seq, &r.event);
    }
    rec.finish()
}

#[test]
fn random_event_streams_roundtrip_across_block_budgets() {
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
    for seed in [1, 2, 3] {
        let records = random_stream(seed, 2000);
        let mut rendered = Vec::new();
        for budget in [1, 7, 1000, 65_536] {
            let trace = record_v2(&records, budget);
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
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
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
/// counting every thread's requests, and those of 1 MiB or more, for the
/// tests that measure code with worker threads of its own; and keeping the
/// largest request of any thread but the one that marked itself the caller.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

// Relaxed everywhere: statistics, publishing no other data.
static REQUESTS: AtomicU64 = AtomicU64::new(0);
static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static LARGEST_OFF_CALLER: AtomicUsize = AtomicUsize::new(0);

const LARGE: usize = 1 << 20;

/// The process-wide counters mean something only while one test runs:
/// that test takes this for writing, every other test for reading. A test
/// that fails while holding it poisons it; the others take it anyway
/// (`PoisonError::into_inner`), so one failure reads as one.
static WHOLE_PROCESS: RwLock<()> = RwLock::new(());

fn note_request(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    REQUESTS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
    if !IS_CALLER.try_with(Cell::get).unwrap_or(false) {
        LARGEST_OFF_CALLER.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The only state touched is two
// const-initialised thread-local `Cell`s and three atomics: no
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

/// Loads `file` and, if it loads, decodes it whole and runs the threaded
/// stats and export passes over it. Each must fail — by returning the same
/// error, not by panicking — without a single allocation request above
/// 1 MiB on this thread, which allocates the passes' buffers (every forged
/// file here is under a kilobyte).
fn rejected(file: Vec<u8>) -> TraceError {
    assert!(file.len() < 1024);
    LARGEST.with(|l| l.set(0));
    let must = "a file whose numbers lie must be rejected";
    let err = match Trace::from_bytes(file) {
        Err(e) => e,
        Ok(t) => {
            let err = t.decode_all().expect_err(must);
            let stats = trace_stats_threaded(&t, 4).map(drop).expect_err(must);
            let export = export_csv(&t, 4, 30).map(drop).expect_err(must);
            assert_eq!(stats.to_string(), err.to_string(), "trace stats");
            assert_eq!(export.to_string(), err.to_string(), "trace export");
            err
        }
    };
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
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
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

    // (3c) The same lie told of every block of a three-block trace, which
    // the threaded passes read on their worker ring: the ring is sized by
    // the blocks' bytes, not by the counts the index claims for them.
    let multi = record_v2(&random_stream(9, 6), 2);
    assert_eq!(multi.blocks().len(), 3);
    let inflated: Vec<BlockEntry> = multi
        .blocks()
        .iter()
        .map(|b| BlockEntry {
            n_events: 1 << 40,
            ..b.clone()
        })
        .collect();
    let e = rejected(seal_with_index(block_region(&multi), &inflated, 3 << 40));
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

    // (6) A well-sealed file of the retired flat wire, `LTRC1`: the
    // three events of the docs/FORMATS.md worked example, as that
    // document once showed them. Its seal is genuine; its magic is not
    // this wire's.
    assert_eq!(LTRC1_EXAMPLE.len(), 89);
    assert_eq!(sha256(&LTRC1_EXAMPLE[..57]), LTRC1_EXAMPLE[57..]);
    let e = rejected(LTRC1_EXAMPLE.to_vec());
    assert!(matches!(e, TraceError::BadMagic), "{e}");
    assert_eq!(e.to_string(), "not a lockss trace (bad magic)");
}

/// A well-sealed file whose last record lies past the header's run length
/// (2^62 ms against 1000 ms) decodes, since every column is well-formed,
/// but `trace export` sizes its rows by the records' times: at one-day
/// buckets that record alone used to ask for ~5·10^10 rows. Export
/// refuses it, naming the record's block, without a request of 1 MiB on
/// the calling thread, which sizes the export's buffers.
#[test]
fn export_refuses_a_record_past_the_run_length() {
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
    let join = |at: u64, peer: u32| TraceRecord {
        at: SimTime(at),
        seq: u64::from(peer),
        event: TraceEvent::PeerJoin { peer },
    };
    let records = [join(0, 0), join(500, 1), join(1 << 62, 2)];
    let trace = record_v2(&records, 1);
    assert_eq!(trace.blocks().len(), 3);
    assert_eq!(trace.decode_all().expect("well-formed"), records);
    for threads in [1, 4] {
        LARGEST.with(|l| l.set(0));
        let e = export_csv(&trace, threads, 1).expect_err("a record past the run's end");
        let largest = LARGEST.with(Cell::get);
        assert!(
            matches!(
                e,
                TraceError::BadColumn {
                    block: 2,
                    column: "time-delta"
                }
            ),
            "{e}"
        );
        assert!(largest < LARGE, "{e}: one request of {largest} bytes");
    }
}

/// A well-sealed file whose header claims a run of 2^62 ms, with its last
/// record at that very instant: every column is well-formed and no record
/// lies past the run, yet one-day rows up to that record would take ~6.4
/// TB. Even an honest `MAX_RUN_DAYS` header would take ~5·10^10 rows.
/// Export refuses both from the header, before decoding, without a
/// request of 1 MiB, naming the bucket count and the narrowest bucket
/// width that fits; at that width the forged file exports.
#[test]
fn export_refuses_more_rows_than_it_writes() {
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
    let join = |at: u64, peer: u32| TraceRecord {
        at: SimTime(at),
        seq: u64::from(peer),
        event: TraceEvent::PeerJoin { peer },
    };
    let record = |run_length_ms: u64, records: &[TraceRecord]| {
        let long = TraceMeta {
            run_length_ms,
            ..meta()
        };
        record_with(&long, records, 1)
    };
    let forged = record(1 << 62, &[join(0, 0), join(1 << 62, 1)]);
    let honest_ms = MAX_RUN_DAYS * Duration::DAY.as_millis();
    let honest = record(honest_ms, &[join(0, 0)]);
    for trace in [&forged, &honest] {
        assert!(trace.decode_all().is_ok(), "every column is well-formed");
        for threads in [1, 4] {
            LARGEST.with(|l| l.set(0));
            let e = export_csv(trace, threads, 1).expect_err("more rows than an export writes");
            let largest = LARGEST.with(Cell::get);
            assert!(largest < LARGE, "{e}: one request of {largest} bytes");
            assert_eq!(
                e.to_string(),
                "the run spans 53375995584 buckets of 1 days, more than the 65536 rows an \
                 export writes: pass --bucket-days 814454 or wider"
            );
        }
    }
    let csv = export_csv(&forged, 4, 814_454).expect("the suggested width fits");
    assert_eq!(csv.lines().count(), 1 + 65_536);
    assert!(export_csv(&forged, 4, 814_453).is_err());
}

/// Seals a one-block trace again around a replacement `body`: frame,
/// index entry (length and digest) and file seal all brought up to date,
/// so the forgery reaches the column decoder.
fn with_body(trace: &Trace, body: &[u8]) -> Vec<u8> {
    let mut entry = trace.blocks()[0].clone();
    let mut region = trace.as_bytes()[..=entry.offset as usize].to_vec();
    put_varint(&mut region, body.len() as u64);
    region.extend_from_slice(body);
    entry.body_len = body.len() as u64;
    entry.digest = sha256(body);
    seal_with_index(&region, &[entry], trace.events())
}

#[test]
fn undeclared_labels_are_rejected_naming_the_label_column() {
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
    // One phase mark: its label column is the body's last, stored raw as
    // `enc 0 · raw_len · stored_len · varint len · bytes`.
    let label = Label::AdmissionFlood;
    let mark = TraceRecord {
        at: SimTime(5),
        seq: 1,
        event: TraceEvent::PhaseMark { label },
    };
    let trace = record_v2(&[mark], 100);
    let entry = &trace.blocks()[0];
    let region = block_region(&trace);
    let body = &region[region.len() - entry.body_len as usize..];
    let len = label.label().len();
    let column = [
        &[0, len as u8 + 1, len as u8 + 1, len as u8][..],
        label.label().as_bytes(),
    ]
    .concat();
    assert!(body.ends_with(&column), "the label column is stored raw");
    let prefix = &body[..body.len() - column.len()];
    // The honest column, re-sealed by the forging helper, still decodes.
    let honest = Trace::from_bytes(with_body(&trace, body)).expect("honest");
    assert_eq!(honest.decode_all().expect("honest"), [mark]);

    let mut one_byte_off = label.label().as_bytes().to_vec();
    one_byte_off[3] ^= 1;
    let mut not_utf8 = label.label().as_bytes().to_vec();
    not_utf8[0] = 0xC3;
    for string in [
        Vec::new(),
        "é-phase/∆".repeat(40).into_bytes(),
        one_byte_off,
        not_utf8,
    ] {
        let mut raw = Vec::new();
        put_varint(&mut raw, string.len() as u64);
        raw.extend_from_slice(&string);
        let mut forged = prefix.to_vec();
        forged.push(0);
        put_varint(&mut forged, raw.len() as u64);
        put_varint(&mut forged, raw.len() as u64);
        forged.extend_from_slice(&raw);
        let e = rejected(with_body(&trace, &forged));
        assert!(
            matches!(
                e,
                TraceError::BadColumn {
                    block: 0,
                    column: "label"
                }
            ),
            "{string:?}: {e}"
        );
        assert_eq!(e.to_string(), "malformed label column in block 0");
    }
}

/// A decoded record is plain data: `Copy`, and on 64-bit targets 48
/// bytes around a 32-byte event, the largest payload (`PoisonedRepair`)
/// setting the event's size.
#[test]
fn records_are_small_copy_values() {
    fn copy<T: Copy>() {}
    copy::<TraceEvent>();
    copy::<TraceRecord>();
    if cfg!(target_pointer_width = "64") {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
        assert_eq!(std::mem::size_of::<TraceRecord>(), 48);
    }
}

/// An 89-byte `LTRC1` file: magic, header, three flat records, end
/// marker, record count and SHA-256 seal.
const LTRC1_EXAMPLE: [u8; 89] = [
    0x4c, 0x54, 0x52, 0x43, 0x31, 0x0a, 0x04, 0x64, 0x65, 0x6d, 0x6f, 0x05, 0x71, 0x75, 0x69, 0x63,
    0x6b, 0x09, 0x80, 0xb8, 0x99, 0x29, 0x01, 0xe8, 0x07, 0x0a, 0x03, 0x01, 0x07, 0x03, 0xfa, 0x01,
    0x01, 0x03, 0x0c, 0x00, 0x01, 0x07, 0x00, 0x02, 0xee, 0x05, 0x01, 0x03, 0x01, 0x07, 0x00, 0x0a,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x56, 0x1e, 0x47, 0x29, 0xd3, 0xba, 0xa6,
    0x76, 0x59, 0xf2, 0xeb, 0x7f, 0x7c, 0xef, 0xf7, 0xe2, 0xdd, 0xfe, 0x99, 0x10, 0xf4, 0x54, 0xad,
    0x7e, 0x7c, 0x16, 0x77, 0x3a, 0xf3, 0x29, 0x6c, 0xbc,
];

/// Event `i` of a stream whose every third event carries a label.
fn steady_event(i: u64) -> TraceEvent {
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
    let _alone = WHOLE_PROCESS
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    steady_state_recording_allocates_per_block_not_per_event();
    block_passes_allocate_per_block_once_warm();
}

/// Eight blocks of 4,096 events, a third of them labelled: after the
/// first block the recorder's allocations are those of a handful of block
/// buffers and the file's growth, nowhere near one per event.
fn steady_state_recording_allocates_per_block_not_per_event() {
    const BLOCK: u64 = 4_096;
    const BLOCKS: u64 = 8;
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
    // builds only) the encoder's round-trip assertion. Cloning an event
    // whose label was a `String` once made one per labelled event, 9,557
    // here.
    let bound = 256 * BLOCKS;
    assert!(
        made <= bound,
        "{made} allocation(s) after the first block for {} more events (bound {bound})",
        BLOCK * (BLOCKS - 1)
    );
}

/// Allocation requests a block pass may make per block once warm: the
/// decoder's per-block cursor tables. A decoded record owns no heap, so a
/// third of 32,768 records being labelled adds nothing here.
const PASS_REQUESTS_PER_BLOCK: u64 = 16;

/// Blocks wide enough that one decoded block is a multi-MiB buffer: a
/// pass makes its large allocations while the first `2 × threads` blocks
/// size the ring, and none after; and after those blocks it makes a few
/// requests per block, none per record.
fn block_passes_allocate_per_block_once_warm() {
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
        let warm_blocks = 2 * threads;
        let (mut folded, mut events) = (0usize, 0u64);
        let mut when_warm = None;
        for_each_block(&trace, threads, |block| {
            folded += 1;
            events += block.len() as u64;
            if folded == warm_blocks {
                when_warm = Some((requests(), large_requests()));
            }
        })
        .expect("decodes");
        assert_eq!(events, trace.events());
        let (requests_warm, large_warm) = when_warm.expect("more blocks than the ring");
        assert_eq!(
            large_requests(),
            large_warm,
            "{threads} thread(s): a large allocation after the first {warm_blocks} blocks",
        );
        let made = requests() - requests_warm;
        let bound = PASS_REQUESTS_PER_BLOCK * (BLOCKS - warm_blocks as u64);
        assert!(
            made <= bound,
            "{threads} thread(s): {made} allocation(s) after the first {warm_blocks} \
             blocks (bound {bound})"
        );
    }

    // The streaming reader likewise: everything large is the first block's,
    // and each later block costs a few requests.
    let mut reader = trace.records();
    assert!(reader.next_record().expect("decodes").is_some());
    let (after_first_block, large_after_first_block) = (requests(), large_requests());
    let mut rest = 1u64;
    while reader.next_record().expect("decodes").is_some() {
        rest += 1;
    }
    assert_eq!(rest, trace.events());
    assert_eq!(large_requests(), large_after_first_block);
    let made = requests() - after_first_block;
    let bound = PASS_REQUESTS_PER_BLOCK * (BLOCKS - 1);
    assert!(
        made <= bound,
        "streaming reader: {made} allocation(s) after the first block (bound {bound})"
    );
}

/// The threaded block passes decode into buffers the calling thread
/// allocated before their workers started: at 2 and 4 threads over blocks
/// of the default budget, no other thread asks for as much memory as one
/// block's records. A buffer a short-lived worker grows stays resident
/// in that worker's allocator arena after the pass.
#[test]
fn block_pass_workers_fill_buffers_the_caller_allocated() {
    let _alone = WHOLE_PROCESS
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let per_block = DEFAULT_BLOCK_EVENTS as u64;
    let recorder = Recorder::new(&meta());
    let mut sink = recorder.clone();
    for i in 0..3 * per_block + 100 {
        sink.record(SimTime(i * 10), i, &steady_event(i));
    }
    let trace = recorder.finish();
    assert_eq!(trace.blocks().len(), 4);
    let block_buffer = DEFAULT_BLOCK_EVENTS * std::mem::size_of::<TraceRecord>();

    IS_CALLER.with(|c| c.set(true));
    for threads in [2usize, 4] {
        LARGEST_OFF_CALLER.store(0, Ordering::Relaxed);
        let mut events = 0u64;
        for_each_block(&trace, threads, |block| events += block.len() as u64).expect("decodes");
        assert_eq!(events, trace.events());
        let largest = LARGEST_OFF_CALLER.load(Ordering::Relaxed);
        assert!(
            largest < block_buffer,
            "{threads} threads: a worker asked for {largest} bytes, one block's records \
             are {block_buffer}"
        );
    }
    IS_CALLER.with(|c| c.set(false));
}

/// A real (shrunken) scenario run for the analytics tests.
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
fn analytics_are_thread_invariant_on_real_traces() {
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
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
}

#[test]
fn sweep_record_retains_per_seed_traces_that_aggregate() {
    let _shared = WHOLE_PROCESS.read().unwrap_or_else(PoisonError::into_inner);
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
