//! The trace container: header, block-columnar records, indexed trailer.
//!
//! The wire format (`LTRC2`):
//!
//! ```text
//! magic    "LTRC2\n"
//! header   str scenario · str scale · varint seed · varint run_length_ms
//! blocks   repeated: 0x01 · varint body_len · block body (see
//!          [`crate::columnar`] for the column layout inside a body)
//! end      0x00 · block index (offset, body length, event count, kind
//!          bitmap, time range, SHA-256 digest per block)
//! trailer  u64-le index offset · u64-le event count · 32-byte SHA-256
//!          over everything above
//! ```
//!
//! The per-block digests sit inside the sealed region, so block-level
//! integrity rolls up into the one trailing content hash — byte-stable
//! across runs and thread counts for a deterministic `(scenario, seed)`,
//! which is what the golden-trace regression tests pin. The index makes
//! blocks independently addressable: readers seek to a block, resume a
//! stream after a skipped prefix, and decode blocks in parallel.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use lockss_core::trace::{TraceEvent, TraceSink};
use lockss_crypto::sha256::sha256;
use lockss_sim::SimTime;

use crate::columnar::{
    block_events, decode_block_body, parse_index, put_index, BlockBuf, BlockEntry, BlockSealer,
    ColumnScratch,
};
use crate::wire::{put_str, put_varint, Cursor, TraceError};

/// The file magic of the block-columnar v2 format.
pub const MAGIC_V2: &[u8; 6] = b"LTRC2\n";

/// The end-of-records marker (block markers start at 1).
pub(crate) const END: u8 = 0;

/// The start-of-block marker in a v2 stream.
pub(crate) const BLOCK: u8 = 1;

/// Default events per block: big enough to amortize column framing and
/// feed the compressor, small enough that one decoded block (~65k
/// records) bounds a reader's memory.
pub const DEFAULT_BLOCK_EVENTS: usize = 65_536;

/// Identifies the execution a trace captured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Registered scenario name.
    pub scenario: String,
    /// Experiment scale label (`quick` / `default` / `paper`).
    pub scale: String,
    /// The run's seed.
    pub seed: u64,
    /// Simulated run length in milliseconds.
    pub run_length_ms: u64,
}

impl TraceMeta {
    /// Appends the file header.
    pub(crate) fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.scenario);
        put_str(buf, &self.scale);
        put_varint(buf, self.seed);
        put_varint(buf, self.run_length_ms);
    }

    /// Reads a header written by [`TraceMeta::put`].
    pub(crate) fn get(cur: &mut Cursor<'_>) -> Result<TraceMeta, TraceError> {
        Ok(TraceMeta {
            scenario: cur.str()?,
            scale: cur.str()?,
            seed: cur.varint()?,
            run_length_ms: cur.varint()?,
        })
    }
}

impl std::fmt::Display for TraceMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario '{}' at scale '{}', seed {}, {:.0} simulated days",
            self.scenario,
            self.scale,
            self.seed,
            self.run_length_ms as f64 / (24.0 * 3600.0 * 1000.0)
        )
    }
}

/// One decoded record: the event plus its causal position. Plain `Copy`
/// data, like the event: a decoded block owns no heap per record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// The simulated instant of emission.
    pub at: SimTime,
    /// The engine's executed-event ordinal at emission.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[day {:.2}, engine event {}] {}",
            self.at.as_days_f64(),
            self.seq,
            self.event
        )
    }
}

/// The thread a recorder seals full blocks on, and its two channels.
///
/// Full blocks go out over a channel bounded at one, so at most four
/// block buffers ever exist — one filling, one queued, one being sealed,
/// one on its way back — and a simulation that outruns the sealer waits
/// instead of buffering the run. The worker seals in arrival order and
/// returns each emptied buffer for reuse.
struct SealWorker {
    /// `None` once the channel is closed, which is what ends the worker.
    full: Option<SyncSender<BlockBuf>>,
    emptied: Receiver<BlockBuf>,
    handle: Option<JoinHandle<BlockSealer>>,
}

impl SealWorker {
    fn spawn(mut sealer: BlockSealer) -> SealWorker {
        let (full, queue) = sync_channel::<BlockBuf>(1);
        let (back, emptied) = channel::<BlockBuf>();
        let handle = std::thread::Builder::new()
            .name("ltrc2-seal".into())
            .spawn(move || {
                for mut block in queue {
                    sealer.seal_block(&block);
                    block.clear();
                    // The recorder may have been dropped mid-run.
                    let _ = back.send(block);
                }
                sealer
            })
            .expect("spawning the seal worker");
        SealWorker {
            full: Some(full),
            emptied,
            handle: Some(handle),
        }
    }

    /// Hands `block` to the worker; returns the nanoseconds spent waiting
    /// for room in the channel.
    fn send(&self, block: BlockBuf) -> u64 {
        let full = self.full.as_ref().expect("open until joined");
        let gone = "the seal worker exits only when its channel closes";
        match full.try_send(block) {
            Ok(()) => 0,
            Err(TrySendError::Full(block)) => {
                let waiting = Instant::now();
                full.send(block).expect(gone);
                waiting.elapsed().as_nanos() as u64
            }
            Err(TrySendError::Disconnected(_)) => panic!("{gone}"),
        }
    }

    /// Closes the channel and waits for the worker to seal what is
    /// queued. `None` if it was joined before, or panicked.
    fn join(&mut self) -> Option<BlockSealer> {
        self.full = None;
        self.handle.take()?.join().ok()
    }
}

impl Drop for SealWorker {
    /// A recorder dropped unfinished (an aborted replay, an unwinding
    /// run) still stops its thread.
    fn drop(&mut self) {
        self.join();
    }
}

/// Where a recorder's blocks are sealed: on the recording thread until
/// the first block fills — a short recording never spawns a thread —
/// then on a [`SealWorker`]. There is one per recorder, so the sealer's
/// inline hash state costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Sealing {
    Here(BlockSealer),
    Worker(SealWorker),
}

impl Sealing {
    /// Moves the state out, leaving an empty sealer behind.
    fn take(&mut self) -> Sealing {
        std::mem::replace(self, Sealing::Here(BlockSealer::new(Vec::new())))
    }
}

/// Out-of-band counters of a recording's sealing pipeline (never part of
/// the trace bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Blocks handed to the sealer so far, the last partial one included
    /// once the trace is finished.
    pub blocks_sealed: u64,
    /// Nanoseconds the recording thread spent waiting for room in the
    /// seal worker's channel.
    pub blocked_ns: u64,
}

struct RecorderInner {
    open: BlockBuf,
    block_events: usize,
    events: u64,
    sealing: Sealing,
    stats: SealStats,
}

impl RecorderInner {
    /// Swaps the full open block for an empty one and queues it for the
    /// worker, which the first full block spawns.
    fn hand_over(&mut self) {
        let worker = match self.sealing.take() {
            Sealing::Here(sealer) => SealWorker::spawn(sealer),
            Sealing::Worker(worker) => worker,
        };
        let next = worker.emptied.try_recv().unwrap_or_default();
        let full = std::mem::replace(&mut self.open, next);
        self.stats.blocked_ns += worker.send(full);
        self.stats.blocks_sealed += 1;
        self.sealing = Sealing::Worker(worker);
    }
}

/// Records a run's event stream into the block-columnar v2 format.
///
/// The recorder is a shared handle (`Clone`): install one clone as the
/// world's sink and keep the other to [`Recorder::finish`] the trace after
/// the run. Each event is written field by field into the open block's
/// columns as it arrives; a full block is handed to a worker thread that
/// picks the column encodings, digests the body and appends it to the
/// file bytes, in block order, so the bytes are the same function of the
/// events they always were. The handle itself is single-threaded by
/// design, like the runs it records.
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<RefCell<RecorderInner>>,
}

impl Recorder {
    /// A recorder with the header already encoded and the default block
    /// budget.
    pub fn new(meta: &TraceMeta) -> Recorder {
        Recorder::with_block_events(meta, DEFAULT_BLOCK_EVENTS)
    }

    /// A recorder flushing a block every `block_events` events (clamped
    /// to at least 1). Small budgets are for tests that want many blocks
    /// from few events; real recordings use [`Recorder::new`].
    pub fn with_block_events(meta: &TraceMeta, block_events: usize) -> Recorder {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(MAGIC_V2);
        meta.put(&mut buf);
        Recorder {
            inner: Rc::new(RefCell::new(RecorderInner {
                open: BlockBuf::default(),
                block_events: block_events.max(1),
                events: 0,
                sealing: Sealing::Here(BlockSealer::new(buf)),
                stats: SealStats::default(),
            })),
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.inner.borrow().events
    }

    /// The sealing pipeline's counters so far. They outlive
    /// [`Recorder::finish`]: a clone kept past it reads the final values.
    pub fn seal_stats(&self) -> SealStats {
        self.inner.borrow().stats
    }

    /// Seals the trace: seals the last partial block behind the ones
    /// already queued, then appends the end marker, block index, index
    /// offset, event count, and the content hash. The sealer has hashed
    /// the header and every block frame as it appended them, so only the
    /// trailer is hashed here.
    pub fn finish(self) -> Trace {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let partial = !inner.open.is_empty();
        inner.stats.blocks_sealed += u64::from(partial);
        let sealer = match inner.sealing.take() {
            Sealing::Here(mut sealer) => {
                if partial {
                    sealer.seal_block(&inner.open);
                    inner.open.clear();
                }
                sealer
            }
            Sealing::Worker(mut worker) => {
                if partial {
                    inner.stats.blocked_ns += worker.send(std::mem::take(&mut inner.open));
                }
                worker.join().expect("the seal worker panicked")
            }
        };
        let (mut bytes, blocks, mut hash) = sealer.into_parts();
        let index_offset = bytes.len();
        bytes.push(END);
        put_index(&mut bytes, &blocks);
        bytes.extend_from_slice(&(index_offset as u64).to_le_bytes());
        bytes.extend_from_slice(&inner.events.to_le_bytes());
        hash.update(&bytes[index_offset..]);
        bytes.extend_from_slice(&hash.finalize());
        Trace {
            sealed: Arc::new(Sealed { bytes, blocks }),
        }
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, at: SimTime, seq: u64, event: &TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        inner.open.push(at, seq, event);
        inner.events += 1;
        if inner.open.len() >= inner.block_events {
            inner.hand_over();
        }
    }
}

/// The LTRC2 bytes of a sealed trace and the block index parsed from
/// their trailer.
#[derive(Debug, PartialEq, Eq)]
struct Sealed {
    bytes: Vec<u8>,
    blocks: Vec<BlockEntry>,
}

/// A sealed, hash-verified trace. Cloning shares the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    sealed: Arc<Sealed>,
}

impl Trace {
    /// Bytes of trailer past the index: index offset + count + hash.
    const TAIL: usize = 8 + 8 + 32;

    /// Validates raw file bytes (magic, trailer hash, decodable header
    /// and a structurally sound block index) into a trace. Anything that
    /// does not start with `LTRC2\n` is [`TraceError::BadMagic`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Trace, TraceError> {
        if !bytes.starts_with(MAGIC_V2) {
            return Err(TraceError::BadMagic);
        }
        if bytes.len() < MAGIC_V2.len() + Trace::TAIL {
            return Err(TraceError::Truncated);
        }
        let body_len = bytes.len() - 32;
        if sha256(&bytes[..body_len]) != bytes[body_len..] {
            return Err(TraceError::HashMismatch);
        }
        let blocks = Trace::validate_index(&bytes)?;
        let trace = Trace {
            sealed: Arc::new(Sealed { bytes, blocks }),
        };
        trace.meta()?; // header must decode
        Ok(trace)
    }

    /// Parses and structurally validates the trailer index: every block
    /// frame must sit inside the record region with a matching length,
    /// and the per-block event counts must sum to the trailer count.
    /// Every number in it is the file's claim, so all sums are checked.
    fn validate_index(bytes: &[u8]) -> Result<Vec<BlockEntry>, TraceError> {
        let tail = bytes.len() - Trace::TAIL;
        let u64_at = |at: usize| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(raw)
        };
        let index_offset = usize::try_from(u64_at(tail))
            .ok()
            .filter(|o| (MAGIC_V2.len()..tail).contains(o))
            .ok_or(TraceError::BadIndex("index offset out of range"))?;
        if bytes[index_offset] != END {
            return Err(TraceError::BadIndex("missing end marker"));
        }
        let mut cur = Cursor::new(&bytes[index_offset + 1..tail]);
        let blocks = parse_index(&mut cur)?;
        if !cur.at_end() {
            return Err(TraceError::BadIndex("trailing bytes"));
        }
        let mut total = 0u64;
        for (i, b) in blocks.iter().enumerate() {
            let offset = usize::try_from(b.offset)
                .ok()
                .filter(|&o| o < index_offset && bytes[o] == BLOCK)
                .ok_or(TraceError::BadIndex("block offset"))?;
            let mut frame = Cursor::new(&bytes[offset + 1..index_offset]);
            if frame.varint().ok() != Some(b.body_len) {
                return Err(TraceError::BadIndex("block frame"));
            }
            let end = usize::try_from(b.body_len)
                .ok()
                .and_then(|len| len.checked_add(offset + 1 + frame.pos()))
                .ok_or(TraceError::BadIndex("block frame"))?;
            if end > index_offset {
                return Err(TraceError::TruncatedBlock { block: i as u64 });
            }
            total = total
                .checked_add(b.n_events)
                .ok_or(TraceError::BadIndex("event count"))?;
        }
        if total != u64_at(tail + 8) {
            return Err(TraceError::BadIndex("event count"));
        }
        Ok(blocks)
    }

    /// Number of records, read from the trailer in O(1).
    pub fn events(&self) -> u64 {
        let bytes = self.as_bytes();
        let start = bytes.len() - (8 + 32);
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes[start..start + 8]);
        u64::from_le_bytes(raw)
    }

    /// The block index.
    pub fn blocks(&self) -> &[BlockEntry] {
        &self.sealed.blocks
    }

    /// The raw encoded bytes (header + blocks + index + trailer).
    pub fn as_bytes(&self) -> &[u8] {
        &self.sealed.bytes
    }

    /// The trailing SHA-256 content hash, hex-encoded.
    pub fn content_hash(&self) -> String {
        let bytes = self.as_bytes();
        bytes[bytes.len() - 32..]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Decodes the header.
    pub fn meta(&self) -> Result<TraceMeta, TraceError> {
        TraceMeta::get(&mut Cursor::new(&self.as_bytes()[MAGIC_V2.len()..]))
    }

    /// The framed body bytes of block `block` and its index entry, not
    /// yet verified against each other.
    fn framed_body(&self, block: usize) -> Result<(&BlockEntry, &[u8]), TraceError> {
        let entry = self
            .blocks()
            .get(block)
            .ok_or(TraceError::BadIndex("block out of range"))?;
        let truncated = |_| TraceError::TruncatedBlock {
            block: block as u64,
        };
        // Offset and frame were validated against the index on load.
        let mut cur = Cursor::new(&self.as_bytes()[entry.offset as usize + 1..]);
        let len = cur.varint().map_err(truncated)? as usize;
        Ok((entry, cur.bytes(len).map_err(truncated)?))
    }

    /// The framed body bytes of block `block`, digest and event count
    /// verified against the index.
    fn block_body(&self, block: usize) -> Result<&[u8], TraceError> {
        let (entry, body) = self.framed_body(block)?;
        if sha256(body) != entry.digest {
            return Err(TraceError::BadBlockChecksum {
                block: block as u64,
            });
        }
        // Readers count records off the index (the diff's skipped prefix,
        // a caller sizing a buffer); hold its claim to the body's own.
        if Cursor::new(body).varint().ok() != Some(entry.n_events) {
            return Err(TraceError::BadIndex("event count"));
        }
        Ok(body)
    }

    /// Decodes block `block`, appending its records to `out`. The block
    /// body is digest-verified first, so a corrupt block under a
    /// re-sealed file still diagnoses as [`TraceError::BadBlockChecksum`].
    /// `scratch` is the caller's to keep between blocks; on an error
    /// `out` is left as it came in.
    pub fn decode_block_into(
        &self,
        block: usize,
        scratch: &mut ColumnScratch,
        out: &mut Vec<TraceRecord>,
    ) -> Result<(), TraceError> {
        let body = self.block_body(block)?;
        decode_block_body(body, block as u64, scratch, out)
    }

    /// A streaming reader over the decoded records.
    pub fn records(&self) -> TraceReader {
        self.records_from_block(0)
    }

    /// A reader starting at the first record of block `from_block`
    /// (callers index into [`Trace::blocks`]). The diff fast path uses
    /// this to resume a stream after skipping an identical
    /// digest-verified prefix.
    pub fn records_from_block(&self, from_block: usize) -> TraceReader {
        TraceReader {
            trace: self.clone(),
            next_block: from_block,
            scratch: ColumnScratch::default(),
            records: Vec::new(),
            next_record: 0,
        }
    }

    /// The event count of block `block`, verified: the body's digest and
    /// its count held to the index, and the count held to the block's
    /// decompressed kind column. A number the bytes back, unlike the
    /// index's and the trailer's, so a caller may size a buffer by it.
    fn verified_events(
        &self,
        block: usize,
        scratch: &mut ColumnScratch,
    ) -> Result<usize, TraceError> {
        block_events(self.block_body(block)?, block as u64, scratch)
    }

    /// Decodes every record into memory, in one allocation of its final
    /// size. A first pass verifies each block and sums the verified
    /// counts; the second decodes the bodies the first has digested
    /// without hashing them again. A block that fails verification is
    /// therefore reported before any block's payload columns are read.
    pub fn decode_all(&self) -> Result<Vec<TraceRecord>, TraceError> {
        let mut scratch = ColumnScratch::default();
        let mut total = 0;
        for block in 0..self.blocks().len() {
            total += self.verified_events(block, &mut scratch)?;
        }
        let mut out = Vec::with_capacity(total);
        for block in 0..self.blocks().len() {
            let (_, body) = self.framed_body(block)?;
            decode_block_body(body, block as u64, &mut scratch, &mut out)?;
        }
        Ok(out)
    }

    /// Writes the trace to `path`, creating parent directories on demand.
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.as_bytes())?;
        Ok(())
    }

    /// Reads and validates a trace file.
    pub fn read_from(path: &Path) -> Result<Trace, TraceError> {
        Trace::from_bytes(std::fs::read(path)?)
    }
}

/// Streaming decoder over a trace's records, one block at a time, so
/// memory stays bounded by one decoded block however large the trace —
/// where [`Trace::decode_all`] materializes millions of records for a
/// default-scale run. Each block is decoded into the same buffers as the
/// one before it. Holds its own (shared) handle on the trace, so it can
/// outlive the borrow it was made from (the replay `Verifier` is
/// installed as a boxed, `'static` `TraceSink`). After an error the
/// reader is finished.
pub struct TraceReader {
    trace: Trace,
    next_block: usize,
    scratch: ColumnScratch,
    /// The decoded records of the block in hand.
    records: Vec<TraceRecord>,
    next_record: usize,
}

impl TraceReader {
    /// The next record, borrowed from the reader's decoded block: what
    /// [`Iterator::next`] copies. `Ok(None)` at the end of the trace.
    pub fn next_record(&mut self) -> Result<Option<&TraceRecord>, TraceError> {
        while self.next_record >= self.records.len() {
            let n_blocks = self.trace.blocks().len();
            if self.next_block >= n_blocks {
                return Ok(None);
            }
            self.records.clear();
            self.next_record = 0;
            let block = self.next_block;
            self.next_block += 1;
            let decoded = self
                .trace
                .decode_block_into(block, &mut self.scratch, &mut self.records);
            if let Err(e) = decoded {
                self.next_block = n_blocks;
                return Err(e);
            }
        }
        self.next_record += 1;
        Ok(Some(&self.records[self.next_record - 1]))
    }
}

impl Iterator for TraceReader {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().map(|r| r.copied()).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_core::trace::{MsgKind, PollConclusion};
    use lockss_sim::Duration;

    fn meta() -> TraceMeta {
        TraceMeta {
            scenario: "baseline".into(),
            scale: "quick".into(),
            seed: 7,
            run_length_ms: Duration::from_days(360).as_millis(),
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                at: SimTime(1_000),
                seq: 1,
                event: TraceEvent::PollStart {
                    peer: 0,
                    au: 0,
                    poll: 0,
                },
            },
            TraceRecord {
                at: SimTime(1_000),
                seq: 1,
                event: TraceEvent::MessageSend {
                    from: 0,
                    to: 3,
                    kind: MsgKind::Poll,
                    au: 0,
                    poll: 0,
                    suppressed: false,
                },
            },
            TraceRecord {
                at: SimTime(90_000),
                seq: 17,
                event: TraceEvent::PollOutcome {
                    peer: 0,
                    au: 0,
                    poll: 0,
                    conclusion: PollConclusion::Win,
                    votes: 5,
                },
            },
        ]
    }

    fn record_all(records: &[TraceRecord]) -> Trace {
        let recorder = Recorder::new(&meta());
        let mut sink: Box<dyn TraceSink> = Box::new(recorder.clone());
        for r in records {
            sink.record(r.at, r.seq, &r.event);
        }
        assert_eq!(recorder.events(), records.len() as u64);
        recorder.finish()
    }

    #[test]
    fn record_decode_roundtrip() {
        let records = sample_records();
        let trace = record_all(&records);
        assert_eq!(trace.meta().unwrap(), meta());
        let decoded = trace.decode_all().unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn bytes_validate_and_hash_is_stable() {
        let trace = record_all(&sample_records());
        let again = record_all(&sample_records());
        assert_eq!(trace.content_hash(), again.content_hash());
        assert_eq!(trace.content_hash().len(), 64);
        let reparsed = Trace::from_bytes(trace.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed, trace);
    }

    #[test]
    fn corruption_is_detected() {
        let trace = record_all(&sample_records());
        let mut bytes = trace.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            Trace::from_bytes(bytes),
            Err(TraceError::HashMismatch)
        ));
        assert!(matches!(
            Trace::from_bytes(b"nonsense".to_vec()),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn damaged_v1_files_are_rejected_at_the_door() {
        // An LTRC1 file, whole or damaged, is refused on its magic before
        // any count or offset in it is read.
        let mut good = record_all(&sample_records()).as_bytes().to_vec();
        let v1_magic = "LTRC1\n".as_bytes();
        good[..MAGIC_V2.len()].copy_from_slice(v1_magic);
        let reseal = |bytes: &mut Vec<u8>| {
            let body = bytes.len() - 32;
            let digest = sha256(&bytes[..body]);
            bytes[body..].copy_from_slice(&digest);
        };
        reseal(&mut good);

        let mut flipped = good.clone();
        flipped[20] ^= 1;
        let mut miscounted = good.clone();
        let count_at = miscounted.len() - 40;
        miscounted[count_at] += 1;
        reseal(&mut miscounted);
        let mut padded = good[..good.len() - 32].to_vec();
        padded.extend_from_slice(&[0; 33]);
        reseal(&mut padded);
        let mut cut = good[..good.len() - 45].to_vec();
        cut.extend_from_slice(&[0; 32]);
        reseal(&mut cut);

        for bytes in [good, flipped, miscounted, padded, cut, v1_magic.to_vec()] {
            assert!(matches!(
                Trace::from_bytes(bytes),
                Err(TraceError::BadMagic)
            ));
        }
    }

    #[test]
    fn file_roundtrip_creates_directories() {
        let trace = record_all(&sample_records());
        let dir = std::env::temp_dir().join(format!("lockss-trace-test-{}", std::process::id()));
        let path = dir.join("nested/t.bin");
        trace.write_to(&path).unwrap();
        let back = Trace::read_from(&path).unwrap();
        assert_eq!(back, trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailer_count_and_owned_reader_agree_with_decode_all() {
        let records = sample_records();
        let trace = record_all(&records);
        assert_eq!(trace.events(), records.len() as u64);
        // The reader holds its own handle: it outlives the trace binding.
        let mut reader = trace.records();
        let decoded = trace.decode_all().unwrap();
        drop(trace);
        let streamed: Vec<_> = reader.by_ref().map(Result::unwrap).collect();
        assert_eq!(streamed, decoded);
        assert!(reader.next().is_none(), "stays done");
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = Recorder::new(&meta()).finish();
        assert!(trace.blocks().is_empty());
        assert_eq!(trace.events(), 0);
        assert_eq!(trace.decode_all().unwrap(), Vec::new());
        assert_eq!(trace.meta().unwrap().scenario, "baseline");
    }

    #[test]
    fn decode_all_allocates_once_at_its_final_size() {
        let events: Vec<TraceEvent> = sample_records().iter().map(|r| r.event).collect();
        let records: Vec<TraceRecord> = (0..150)
            .map(|i| TraceRecord {
                at: SimTime(i * 100),
                seq: i,
                event: events[i as usize % 3],
            })
            .collect();
        let recorder = Recorder::with_block_events(&meta(), 16);
        let mut sink: Box<dyn TraceSink> = Box::new(recorder.clone());
        for r in &records {
            sink.record(r.at, r.seq, &r.event);
        }
        let trace = recorder.finish();
        assert_eq!(trace.blocks().len(), 10, "150 events at budget 16");
        let decoded = trace.decode_all().unwrap();
        assert_eq!(decoded, records);
        assert_eq!(decoded.len(), decoded.capacity());
    }

    #[test]
    fn small_block_budgets_split_the_stream() {
        let records = sample_records();
        let recorder = Recorder::with_block_events(&meta(), 2);
        let mut sink: Box<dyn TraceSink> = Box::new(recorder.clone());
        for r in &records {
            sink.record(r.at, r.seq, &r.event);
        }
        let trace = recorder.finish();
        assert_eq!(trace.blocks().len(), 2, "3 events at budget 2");
        assert_eq!(trace.blocks()[0].n_events, 2);
        assert_eq!(trace.blocks()[1].n_events, 1);
        assert_eq!(trace.decode_all().unwrap(), records);
        let mut second = Vec::new();
        trace
            .decode_block_into(1, &mut ColumnScratch::default(), &mut second)
            .unwrap();
        assert_eq!(second, records[2..]);
        let first_at = trace.blocks()[0].first_at_ms;
        let last_at = trace.blocks()[1].last_at_ms;
        assert_eq!((first_at, last_at), (1_000, 90_000));
    }
}
