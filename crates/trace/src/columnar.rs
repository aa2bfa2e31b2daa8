//! The LTRC2 block-columnar codec: block bodies, column framing, and the
//! trailer index.
//!
//! An LTRC2 trace groups events into fixed-budget blocks. Inside each
//! block the record stream is transposed into parallel columns — one
//! byte of kind code per event, delta-coded varint time and engine-
//! ordinal columns, and one column *per payload field* of every event
//! kind present — because same-shaped bytes sitting next to each other
//! is what makes the [`crate::lz`] pass bite: a burst of message-sends
//! for one poll puts thousands of near-identical poll ids, AU ids, enum
//! codes, and flags each in their own column (which LZ collapses to
//! almost nothing) while the genuinely high-entropy peer-id fields pay
//! for only their own bytes. Delta state resets at every block
//! boundary, so any block decodes independently of its neighbours:
//! that independence is what the parallel analytics in
//! [`crate::parallel`] and the diff's skipped identical prefix are
//! built on.
//!
//! Block body layout (after the per-block framing in the container):
//!
//! ```text
//! varint n_events
//! varint base_at        absolute ms of the first event
//! varint base_seq       engine ordinal of the first event
//! varint kind_bitmap    bit (code-1) set per kind present
//! column kinds          n_events kind-code bytes
//! column time-delta     n_events varints, cumulative from base_at (first 0)
//! column ordinal-delta  n_events varints, cumulative from base_seq (first 0)
//! payload(k)            for each kind k present, ascending code order:
//!   varint n_fields     == the field count of k's payload schema
//!   column field(k,0..) one column per payload field, schema order
//! ```
//!
//! Every column is framed `u8 encoding · varint raw_len · varint
//! stored_len · stored bytes`, where encoding 0 is raw (stored_len ==
//! raw_len), encoding 1 is [`crate::lz`], and encodings 2/3 first
//! re-code the column's varint values as `v0 · zigzag(v[i] - v[i-1])…`
//! (2 stores the delta stream verbatim, 3 LZ-compresses it). The delta
//! re-code is what collapses near-monotone value columns — poll ids,
//! engine-ordinal deltas — that raw LZ barely touches; the encoder
//! tries every applicable encoding and keeps whichever stores fewest
//! bytes, ties to the lowest code, so encoding stays deterministic.
//! The trailer index keeps,
//! per block: file offset, body length, event count, kind bitmap, the
//! block's time range, and a SHA-256 digest of the body — all under the
//! whole-file seal, so per-block integrity rolls up into the one
//! content hash.

use lockss_core::trace::{TraceEvent, TraceEventKind};
use lockss_crypto::sha256::{sha256, Sha256};
use lockss_sim::SimTime;

use crate::format::{TraceRecord, BLOCK};
use crate::lz;
use crate::wire::{
    field_count, field_is_varint, get_event, put_event, put_varint, Cursor, TraceError,
};

/// Column encoding byte: bytes stored verbatim.
const ENC_RAW: u8 = 0;
/// Column encoding byte: bytes stored LZ-compressed.
const ENC_LZ: u8 = 1;
/// Column encoding byte: zigzag-delta varint re-code, stored verbatim.
const ENC_DELTA: u8 = 2;
/// Column encoding byte: zigzag-delta varint re-code, LZ-compressed.
const ENC_DELTA_LZ: u8 = 3;

/// One block's entry in the trailer index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// File offset of the block's `0x01` marker byte.
    pub offset: u64,
    /// Length of the framed block body in bytes.
    pub body_len: u64,
    /// Number of events in the block.
    pub n_events: u64,
    /// Bit `code - 1` set for every event kind present in the block.
    pub kind_bitmap: u64,
    /// Simulated time of the block's first event, in milliseconds.
    pub first_at_ms: u64,
    /// Simulated time of the block's last event, in milliseconds.
    pub last_at_ms: u64,
    /// SHA-256 digest of the block body.
    pub digest: [u8; 32],
}

/// One empty byte column per payload field of every kind, indexed
/// `[kind code - 1][field]`.
fn payload_columns() -> Vec<Vec<Vec<u8>>> {
    TraceEventKind::ALL
        .iter()
        .map(|k| vec![Vec::new(); field_count(*k)])
        .collect()
}

/// One open block: the raw columns events are pushed straight into.
///
/// Recording writes each field of each event into its column as the
/// event arrives, so a full block is already transposed when it reaches
/// [`BlockSealer::seal_block`]. Emptied with [`BlockBuf::clear`] and
/// filled again, a buffer keeps its column capacity: a recorder in
/// steady state allocates nothing per event or per block.
pub(crate) struct BlockBuf {
    kinds: Vec<u8>,
    d_at: Vec<u8>,
    d_seq: Vec<u8>,
    payloads: Vec<Vec<Vec<u8>>>,
    bitmap: u64,
    base_at: u64,
    base_seq: u64,
    last_at: u64,
    last_seq: u64,
}

impl Default for BlockBuf {
    /// An empty block.
    fn default() -> BlockBuf {
        BlockBuf {
            kinds: Vec::new(),
            d_at: Vec::new(),
            d_seq: Vec::new(),
            payloads: payload_columns(),
            bitmap: 0,
            base_at: 0,
            base_seq: 0,
            last_at: 0,
            last_seq: 0,
        }
    }
}

impl BlockBuf {
    /// Events pushed since the block was new or cleared.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no event has been pushed.
    pub(crate) fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Appends one event. Events arrive in emission order: time and
    /// engine ordinal never step back inside a block.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, event: &TraceEvent) {
        let at = at.as_millis();
        if self.kinds.is_empty() {
            (self.base_at, self.base_seq) = (at, seq);
            (self.last_at, self.last_seq) = (at, seq);
        }
        let kind = event.kind();
        self.bitmap |= kind.bit();
        self.kinds.push(kind.code());
        put_varint(&mut self.d_at, at - self.last_at);
        put_varint(&mut self.d_seq, seq - self.last_seq);
        (self.last_at, self.last_seq) = (at, seq);
        put_event(&mut self.payloads[kind.code() as usize - 1], event);
    }

    /// Empties the block, keeping every column's capacity.
    pub(crate) fn clear(&mut self) {
        self.kinds.clear();
        self.d_at.clear();
        self.d_seq.clear();
        for col in self.payloads.iter_mut().flatten() {
            col.clear();
        }
        self.bitmap = 0;
        (self.base_at, self.base_seq) = (0, 0);
        (self.last_at, self.last_seq) = (0, 0);
    }
}

/// Re-codes a canonical varint stream as `varint v0 · zigzag varint
/// (v[i] - v[i-1])…` (wrapping subtraction, so the full u64 range is
/// lossless) into `out`, replacing its contents. Returns `false` if
/// `raw` is not a canonical varint stream, in which case the transform
/// must not be used.
fn zigzag_delta(raw: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    let mut cur = Cursor::new(raw);
    let mut prev = 0u64;
    let mut first = true;
    while !cur.at_end() {
        let Ok(v) = cur.varint() else {
            return false;
        };
        if first {
            put_varint(out, v);
            first = false;
        } else {
            let d = v.wrapping_sub(prev) as i64;
            put_varint(out, ((d << 1) ^ (d >> 63)) as u64);
        }
        prev = v;
    }
    true
}

/// Inverts [`zigzag_delta`], rebuilding the original varint stream in
/// `out` (contents replaced).
fn undo_zigzag_delta(bytes: &[u8], out: &mut Vec<u8>) -> Result<(), ()> {
    out.clear();
    let mut cur = Cursor::new(bytes);
    let mut prev = 0u64;
    let mut first = true;
    while !cur.at_end() {
        let z = cur.varint().map_err(|_| ())?;
        let v = if first {
            first = false;
            z
        } else {
            let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
            prev.wrapping_add(d as u64)
        };
        put_varint(out, v);
        prev = v;
    }
    Ok(())
}

/// The per-column encoding trial and the buffers it reuses from column
/// to column: one LZ table, and one buffer per candidate encoding.
#[derive(Default)]
struct ColumnEncoder {
    lz: lz::Compressor,
    packed: Vec<u8>,
    delta: Vec<u8>,
    delta_packed: Vec<u8>,
}

impl ColumnEncoder {
    /// Appends one column with the `encoding · raw_len · stored_len ·
    /// bytes` framing. `delta_ok` marks the column as a canonical varint
    /// stream, letting the encoder also try the zigzag-delta re-code;
    /// whichever of the four encodings stores fewest bytes wins (ties to
    /// the lower encoding code, so the choice is deterministic).
    fn put_column(&mut self, out: &mut Vec<u8>, raw: &[u8], delta_ok: bool) {
        self.packed.clear();
        self.lz.compress_into(raw, &mut self.packed);
        let (mut enc, mut basis_len, mut stored) = if self.packed.len() < raw.len() {
            (ENC_LZ, raw.len(), self.packed.as_slice())
        } else {
            (ENC_RAW, raw.len(), raw)
        };
        if delta_ok && zigzag_delta(raw, &mut self.delta) {
            debug_assert!({
                let mut back = Vec::new();
                undo_zigzag_delta(&self.delta, &mut back).is_ok() && back == raw
            });
            self.delta_packed.clear();
            self.lz.compress_into(&self.delta, &mut self.delta_packed);
            if self.delta_packed.len() < self.delta.len() && self.delta_packed.len() < stored.len()
            {
                (enc, basis_len, stored) = (ENC_DELTA_LZ, self.delta.len(), &self.delta_packed);
            } else if self.delta.len() < stored.len() {
                (enc, basis_len, stored) = (ENC_DELTA, self.delta.len(), &self.delta);
            }
        }
        out.push(enc);
        put_varint(out, basis_len as u64);
        put_varint(out, stored.len() as u64);
        out.extend_from_slice(stored);
    }
}

/// Seals open blocks onto the block region of a file under construction.
///
/// Owns the file's bytes so far (magic, header, the frames of every
/// block sealed), their index entries and the running content hash over
/// them, plus the encoder state reused from block to block. The one
/// place a block's bytes are made: a pure function of the events pushed
/// into the [`BlockBuf`], whichever thread runs it — which both the
/// content hash and the digest-based diff fast path rely on.
pub(crate) struct BlockSealer {
    bytes: Vec<u8>,
    index: Vec<BlockEntry>,
    hash: Sha256,
    body: Vec<u8>,
    encoder: ColumnEncoder,
}

impl BlockSealer {
    /// A sealer appending to `bytes` (the file's magic and header).
    pub(crate) fn new(bytes: Vec<u8>) -> BlockSealer {
        let mut hash = Sha256::new();
        hash.update(&bytes);
        BlockSealer {
            bytes,
            index: Vec::new(),
            hash,
            body: Vec::new(),
            encoder: ColumnEncoder::default(),
        }
    }

    /// Encodes `block` into a block body — the four-way encoding trial
    /// per column — and appends its frame (`0x01 · varint body_len ·
    /// body`) to the file bytes and its digest entry to the index.
    pub(crate) fn seal_block(&mut self, block: &BlockBuf) {
        let body = &mut self.body;
        body.clear();
        put_varint(body, block.len() as u64);
        put_varint(body, block.base_at);
        put_varint(body, block.base_seq);
        put_varint(body, block.bitmap);
        self.encoder.put_column(body, &block.kinds, true);
        self.encoder.put_column(body, &block.d_at, true);
        self.encoder.put_column(body, &block.d_seq, true);
        for kind in TraceEventKind::ALL {
            if block.bitmap & kind.bit() != 0 {
                let cols = &block.payloads[kind.code() as usize - 1];
                put_varint(body, cols.len() as u64);
                for (i, col) in cols.iter().enumerate() {
                    self.encoder.put_column(body, col, field_is_varint(kind, i));
                }
            }
        }
        self.index.push(BlockEntry {
            offset: self.bytes.len() as u64,
            body_len: body.len() as u64,
            n_events: block.len() as u64,
            kind_bitmap: block.bitmap,
            first_at_ms: block.base_at,
            last_at_ms: block.last_at,
            digest: sha256(body),
        });
        let frame = self.bytes.len();
        self.bytes.push(BLOCK);
        put_varint(&mut self.bytes, body.len() as u64);
        self.bytes.extend_from_slice(body);
        self.hash.update(&self.bytes[frame..]);
    }

    /// The file bytes so far, the index of the blocks in them, and the
    /// content hash fed with every one of those bytes.
    pub(crate) fn into_parts(self) -> (Vec<u8>, Vec<BlockEntry>, Sha256) {
        (self.bytes, self.index, self.hash)
    }
}

/// A reader's decode state: the decompressed columns of the block in
/// hand. Cleared, not freed, between blocks, so a reader that keeps one
/// makes no large allocation per block once the first few have sized it.
pub struct ColumnScratch {
    kinds: Vec<u8>,
    d_at: Vec<u8>,
    d_seq: Vec<u8>,
    payloads: Vec<Vec<Vec<u8>>>,
    /// The LZ output of a delta+LZ column, before the delta is undone.
    delta: Vec<u8>,
}

impl Default for ColumnScratch {
    fn default() -> ColumnScratch {
        ColumnScratch {
            kinds: Vec::new(),
            d_at: Vec::new(),
            d_seq: Vec::new(),
            payloads: payload_columns(),
            delta: Vec::new(),
        }
    }
}

/// Reads one framed column into `out` (contents replaced), attributing
/// any failure to `column` in `block` for the diagnostic. `delta` is
/// scratch for the two-step delta+LZ encoding.
fn get_column(
    cur: &mut Cursor<'_>,
    block: u64,
    column: &'static str,
    delta: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<(), TraceError> {
    let bad = || TraceError::BadColumn { block, column };
    let enc = cur.u8().map_err(|_| bad())?;
    let raw_len = cur.varint().map_err(|_| bad())? as usize;
    let stored_len = cur.varint().map_err(|_| bad())? as usize;
    let stored = cur.bytes(stored_len).map_err(|_| bad())?;
    match enc {
        ENC_RAW | ENC_DELTA => {
            if stored_len != raw_len {
                return Err(bad());
            }
            if enc == ENC_RAW {
                out.clear();
                out.extend_from_slice(stored);
                Ok(())
            } else {
                undo_zigzag_delta(stored, out).map_err(|_| bad())
            }
        }
        ENC_LZ => lz::decompress_into(stored, raw_len, out).map_err(|_| bad()),
        ENC_DELTA_LZ => {
            lz::decompress_into(stored, raw_len, delta).map_err(|_| bad())?;
            undo_zigzag_delta(delta, out).map_err(|_| bad())
        }
        _ => Err(bad()),
    }
}

/// Decodes a block body, appending its events to `out`. `block` is the
/// block's index, used only to attribute errors; on an error `out` is
/// left as it came in.
pub fn decode_block_body(
    body: &[u8],
    block: u64,
    scratch: &mut ColumnScratch,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    let len_before = out.len();
    let decoded = decode_body(body, block, scratch, out);
    if decoded.is_err() {
        out.truncate(len_before);
    }
    decoded
}

/// The block header a body opens with.
struct Head {
    base_at: u64,
    base_seq: u64,
    bitmap: u64,
}

/// Reads a body's header and its kind column into `scratch.kinds`,
/// holding the header's event count to the column's decompressed length.
/// Leaves `cur` at the time-delta column.
fn get_head(
    cur: &mut Cursor<'_>,
    block: u64,
    scratch: &mut ColumnScratch,
) -> Result<Head, TraceError> {
    let bad = |column: &'static str| TraceError::BadColumn { block, column };
    let n = cur.varint().map_err(|_| bad("header"))?;
    let head = Head {
        base_at: cur.varint().map_err(|_| bad("header"))?,
        base_seq: cur.varint().map_err(|_| bad("header"))?,
        bitmap: cur.varint().map_err(|_| bad("header"))?,
    };
    get_column(cur, block, "kinds", &mut scratch.delta, &mut scratch.kinds)?;
    if scratch.kinds.len() as u64 != n {
        return Err(bad("kinds"));
    }
    Ok(head)
}

/// The event count of a block body, backed by its decompressed kind
/// column rather than taken on the header's word: a number a caller may
/// size a buffer by.
pub(crate) fn block_events(
    body: &[u8],
    block: u64,
    scratch: &mut ColumnScratch,
) -> Result<usize, TraceError> {
    get_head(&mut Cursor::new(body), block, scratch)?;
    Ok(scratch.kinds.len())
}

fn decode_body(
    body: &[u8],
    block: u64,
    scratch: &mut ColumnScratch,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    let bad = |column: &'static str| TraceError::BadColumn { block, column };
    let mut cur = Cursor::new(body);
    let Head {
        base_at,
        base_seq,
        bitmap,
    } = get_head(&mut cur, block, scratch)?;

    let ColumnScratch {
        kinds,
        d_at,
        d_seq,
        payloads,
        delta,
    } = scratch;
    get_column(&mut cur, block, "time-delta", delta, d_at)?;
    get_column(&mut cur, block, "ordinal-delta", delta, d_seq)?;

    // One column per payload field per kind present, ascending code
    // order, each kind's group prefixed by its field count.
    for kind in TraceEventKind::ALL {
        if bitmap & kind.bit() == 0 {
            continue;
        }
        let n_cols = cur.varint().map_err(|_| bad("payload"))? as usize;
        if n_cols != field_count(kind) {
            return Err(bad("payload"));
        }
        for col in &mut payloads[kind.code() as usize - 1] {
            get_column(&mut cur, block, "payload", delta, col)?;
        }
    }
    if !cur.at_end() {
        return Err(bad("trailing bytes"));
    }

    let mut at_cur = Cursor::new(d_at);
    let mut seq_cur = Cursor::new(d_seq);
    // Cursors over the decompressed columns of the kinds present; the
    // other kinds' columns hold an earlier block's bytes and are never
    // read.
    let mut payload_curs: Vec<Vec<Cursor<'_>>> = TraceEventKind::ALL
        .iter()
        .zip(payloads.iter())
        .map(|(kind, cols)| {
            let cols = if bitmap & kind.bit() != 0 {
                &cols[..]
            } else {
                &[]
            };
            cols.iter().map(|c| Cursor::new(c)).collect()
        })
        .collect();

    // The count is backed by as many decompressed kind bytes, so it is
    // safe to reserve for; a caller that sized `out` for the block
    // already makes this a no-op.
    out.reserve(kinds.len());
    let mut at = base_at;
    let mut seq = base_seq;
    // The deltas are the file's claim: their running sums may not wrap.
    let next = |cur: &mut Cursor<'_>, sum: u64| cur.varint().ok()?.checked_add(sum);
    for &code in kinds.iter() {
        let kind = TraceEventKind::from_code(code).ok_or(TraceError::UnknownKind(code))?;
        if bitmap & kind.bit() == 0 {
            return Err(bad("kinds"));
        }
        at = next(&mut at_cur, at).ok_or(bad("time-delta"))?;
        seq = next(&mut seq_cur, seq).ok_or(bad("ordinal-delta"))?;
        // A field codec that names its column leaves the block to us.
        let event = get_event(&mut payload_curs[code as usize - 1], kind).map_err(|e| match e {
            TraceError::BadColumn { column, .. } => bad(column),
            e => e,
        })?;
        out.push(TraceRecord {
            at: SimTime(at),
            seq,
            event,
        });
    }
    if !at_cur.at_end() || !seq_cur.at_end() {
        return Err(bad("time-delta"));
    }
    if payload_curs.iter().flatten().any(|c| !c.at_end()) {
        return Err(bad("payload"));
    }
    Ok(())
}

/// Appends the trailer index for `blocks`.
pub fn put_index(buf: &mut Vec<u8>, blocks: &[BlockEntry]) {
    put_varint(buf, blocks.len() as u64);
    for b in blocks {
        put_varint(buf, b.offset);
        put_varint(buf, b.body_len);
        put_varint(buf, b.n_events);
        put_varint(buf, b.kind_bitmap);
        put_varint(buf, b.first_at_ms);
        put_varint(buf, b.last_at_ms);
        buf.extend_from_slice(&b.digest);
    }
}

/// Parses a trailer index written by [`put_index`].
pub fn parse_index(cur: &mut Cursor<'_>) -> Result<Vec<BlockEntry>, TraceError> {
    let n = cur
        .varint()
        .map_err(|_| TraceError::BadIndex("block count"))?;
    // 38 bytes is the smallest entry (six one-byte varints + the digest),
    // so the bytes left bound how many entries `n` can honestly promise.
    let mut blocks = Vec::with_capacity(n.min(cur.remaining() as u64 / 38) as usize);
    for _ in 0..n {
        let offset = cur.varint().map_err(|_| TraceError::BadIndex("offset"))?;
        let body_len = cur
            .varint()
            .map_err(|_| TraceError::BadIndex("body length"))?;
        let n_events = cur
            .varint()
            .map_err(|_| TraceError::BadIndex("event count"))?;
        let kind_bitmap = cur
            .varint()
            .map_err(|_| TraceError::BadIndex("kind bitmap"))?;
        let first_at_ms = cur
            .varint()
            .map_err(|_| TraceError::BadIndex("time range"))?;
        let last_at_ms = cur
            .varint()
            .map_err(|_| TraceError::BadIndex("time range"))?;
        let raw = cur.bytes(32).map_err(|_| TraceError::BadIndex("digest"))?;
        let mut digest = [0u8; 32];
        digest.copy_from_slice(raw);
        blocks.push(BlockEntry {
            offset,
            body_len,
            n_events,
            kind_bitmap,
            first_at_ms,
            last_at_ms,
            digest,
        });
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_core::trace::MsgKind;

    /// Seals `records` as one block and returns its index entry and body.
    fn seal(records: &[TraceRecord]) -> (BlockEntry, Vec<u8>) {
        let mut block = BlockBuf::default();
        for r in records {
            block.push(r.at, r.seq, &r.event);
        }
        let mut sealer = BlockSealer::new(vec![0xAB; 46]);
        sealer.seal_block(&block);
        let (bytes, mut index, _) = sealer.into_parts();
        let entry = index.pop().expect("one block sealed");
        assert_eq!((entry.offset, bytes[46]), (46, BLOCK));
        let body = bytes[bytes.len() - entry.body_len as usize..].to_vec();
        (entry, body)
    }

    fn encode_block_body(records: &[TraceRecord]) -> Vec<u8> {
        seal(records).1
    }

    fn decode(body: &[u8], block: u64) -> Result<Vec<TraceRecord>, TraceError> {
        let mut out = Vec::new();
        decode_block_body(body, block, &mut ColumnScratch::default(), &mut out)?;
        Ok(out)
    }

    fn get_column(
        cur: &mut Cursor<'_>,
        block: u64,
        column: &'static str,
    ) -> Result<Vec<u8>, TraceError> {
        let mut out = vec![0xEE; 5];
        super::get_column(cur, block, column, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    fn put_column_opts(out: &mut Vec<u8>, raw: &[u8], delta_ok: bool) {
        ColumnEncoder::default().put_column(out, raw, delta_ok);
    }

    fn sample_records() -> Vec<TraceRecord> {
        (0..200u64)
            .map(|i| TraceRecord {
                at: SimTime(1_000 + i * 250),
                seq: 10 + i * 3,
                event: if i % 3 == 0 {
                    TraceEvent::PollStart {
                        peer: 3,
                        au: 1,
                        poll: 7 + i,
                    }
                } else {
                    TraceEvent::MessageSend {
                        from: 3,
                        to: i as u32 % 17,
                        kind: MsgKind::Vote,
                        au: 1,
                        poll: 7 + i,
                        suppressed: i % 5 == 0,
                    }
                },
            })
            .collect()
    }

    #[test]
    fn block_body_roundtrips() {
        let records = sample_records();
        let body = encode_block_body(&records);
        let back = decode(&body, 0).expect("decodes");
        assert_eq!(back, records);
    }

    #[test]
    fn empty_block_roundtrips() {
        let body = encode_block_body(&[]);
        assert_eq!(decode(&body, 0).expect("decodes"), Vec::new());
    }

    #[test]
    fn truncated_body_reports_the_column() {
        let records = sample_records();
        let body = encode_block_body(&records);
        let cut = &body[..body.len() / 2];
        match decode(cut, 4) {
            Err(TraceError::BadColumn { block: 4, .. }) => {}
            other => panic!("expected BadColumn, got {other:?}"),
        }
    }

    /// A column header is covered by the seal only until someone re-seals
    /// the file: a frame claiming 2⁶⁰ raw bytes must come back as
    /// `BadColumn`, not as an aborting allocation.
    #[test]
    fn hostile_raw_length_reports_the_column() {
        let stored = lz::compress(&[0u8; 512]);
        for enc in [ENC_LZ, ENC_DELTA_LZ] {
            let mut frame = vec![enc];
            put_varint(&mut frame, 1 << 60);
            put_varint(&mut frame, stored.len() as u64);
            frame.extend_from_slice(&stored);
            let got = get_column(&mut Cursor::new(&frame), 3, "kinds");
            assert!(
                matches!(
                    got,
                    Err(TraceError::BadColumn {
                        block: 3,
                        column: "kinds"
                    })
                ),
                "{got:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let records = sample_records();
        let mut body = encode_block_body(&records);
        body.push(0xAA);
        assert!(matches!(
            decode(&body, 0),
            Err(TraceError::BadColumn {
                column: "trailing bytes",
                ..
            })
        ));
    }

    #[test]
    fn index_roundtrips() {
        let records = sample_records();
        let (entry, body) = seal(&records);
        assert_eq!(entry.digest, sha256(&body));
        let entries = vec![
            entry,
            BlockEntry {
                offset: 9_000,
                body_len: 17,
                n_events: 1,
                kind_bitmap: TraceEventKind::Cure.bit(),
                first_at_ms: 5,
                last_at_ms: 5,
                digest: [7u8; 32],
            },
        ];
        let mut buf = Vec::new();
        put_index(&mut buf, &entries);
        let parsed = parse_index(&mut Cursor::new(&buf)).expect("parses");
        assert_eq!(parsed, entries);
        assert_eq!(parsed[0].n_events, 200);
        assert_eq!(parsed[0].first_at_ms, 1_000);
        assert_eq!(parsed[0].last_at_ms, 1_000 + 199 * 250);
    }

    #[test]
    fn truncated_index_is_diagnosed() {
        let entries = vec![seal(&sample_records()).0];
        let mut buf = Vec::new();
        put_index(&mut buf, &entries);
        let cut = &buf[..buf.len() - 10];
        assert!(matches!(
            parse_index(&mut Cursor::new(cut)),
            Err(TraceError::BadIndex(_))
        ));
    }

    #[test]
    fn columnar_body_beats_flat_encoding_on_repetitive_streams() {
        // The same 200 records encoded flat, record by record, for comparison.
        let records = sample_records();
        let mut flat = Vec::new();
        let mut prev_at = 0u64;
        let mut prev_seq = 0u64;
        for r in &records {
            let kind = r.event.kind();
            flat.push(kind.code());
            put_varint(&mut flat, r.at.as_millis() - prev_at);
            put_varint(&mut flat, r.seq - prev_seq);
            let mut fields = vec![Vec::new(); field_count(kind)];
            put_event(&mut fields, &r.event);
            flat.extend(fields.concat());
            prev_at = r.at.as_millis();
            prev_seq = r.seq;
        }
        let body = encode_block_body(&records);
        assert!(
            body.len() * 2 < flat.len(),
            "columnar {} vs flat {}",
            body.len(),
            flat.len()
        );
    }

    #[test]
    fn zigzag_delta_inverts_exactly() {
        // Monotone, wrapping, and adversarially jumpy value sequences
        // all round-trip through the delta re-code.
        for values in [
            vec![0u64],
            vec![7, 7, 7, 7],
            vec![1, 2, 3, 1000, 5, u64::MAX, 0, u64::MAX / 2],
            (0..500).map(|i| i * 37 % 1013).collect(),
        ] {
            let mut raw = Vec::new();
            for &v in &values {
                put_varint(&mut raw, v);
            }
            let (mut delta, mut back) = (vec![9; 3], vec![9; 3]);
            assert!(zigzag_delta(&raw, &mut delta), "canonical stream");
            assert_eq!(undo_zigzag_delta(&delta, &mut back), Ok(()));
            assert_eq!(back, raw);
        }
        let mut delta = vec![9; 3];
        assert!(zigzag_delta(&[], &mut delta) && delta.is_empty());
        // A truncated varint is not a canonical stream.
        assert!(!zigzag_delta(&[0x80], &mut delta));
    }

    #[test]
    fn monotone_varint_column_picks_a_delta_encoding() {
        // Slowly-climbing 3-byte varints: raw LZ finds no 4-byte match,
        // the delta re-code turns them into near-constant small values.
        let mut raw = Vec::new();
        for i in 0..2000u64 {
            put_varint(&mut raw, 100_000 + i * 3);
        }
        let mut col = Vec::new();
        put_column_opts(&mut col, &raw, true);
        assert!(
            col[0] == ENC_DELTA || col[0] == ENC_DELTA_LZ,
            "encoding {}",
            col[0]
        );
        assert!(
            col.len() < raw.len() / 2,
            "stored {} raw {}",
            col.len(),
            raw.len()
        );
        let mut cur = Cursor::new(&col);
        assert_eq!(get_column(&mut cur, 0, "test").unwrap(), raw);
        assert!(cur.at_end());
    }

    #[test]
    fn delta_encoding_never_applies_to_string_columns() {
        // A length-prefixed string column can hold non-canonical varint
        // byte shapes; the encoder must stick to raw/LZ there.
        assert!(!field_is_varint(TraceEventKind::AdversaryAction, 1));
        assert!(!field_is_varint(TraceEventKind::PhaseMark, 0));
        assert!(field_is_varint(TraceEventKind::MessageSend, 4));
        let mut col = Vec::new();
        put_column_opts(&mut col, b"\x80\x00not-a-varint-stream", false);
        assert!(col[0] == ENC_RAW || col[0] == ENC_LZ);
    }
}
