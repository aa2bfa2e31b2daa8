//! The legacy flat v1 wire (`LTRC1`): everything that knows its layout.
//!
//! ```text
//! magic    "LTRC1\n"
//! header   str scenario · str scale · varint seed · varint run_length_ms
//! records  kind u8 (≥1) · varint Δtime_ms · varint Δengine_seq · payload
//! end      0x00 · u64-le record count
//! trailer  32-byte SHA-256 over everything above
//! ```
//!
//! LTRC1 is a file format only. `import` is the read side:
//! [`Trace::from_bytes`] calls it on an `LTRC1\n` magic and gets back
//! the LTRC2 trace a direct recording of the same events would have
//! sealed, so no reader, analytic or replay path ever sees a flat
//! record. [`RecorderV1`] is the write side, kept as the reference
//! tests hold the importer to (and the bench suite sizes LTRC2
//! against); no tool writes LTRC1.

use std::cell::RefCell;
use std::rc::Rc;

use lockss_core::trace::{TraceEvent, TraceEventKind, TraceSink};
use lockss_crypto::sha256::sha256;
use lockss_sim::SimTime;

use crate::format::{Recorder, Trace, TraceMeta, TraceWire, END, MAGIC_V1};
use crate::wire::{get_event, put_event, put_varint, Cursor, TraceError};

/// Re-records an LTRC1 file as an LTRC2 trace. `body` is the file
/// between the magic and the seal, which the caller has verified; the
/// record count is verified here, against the records actually present.
pub(crate) fn import(body: &[u8]) -> Result<Trace, TraceError> {
    let mut cur = Cursor::new(body);
    let mut recorder = Recorder::new(&TraceMeta::get(&mut cur)?);
    let (mut at, mut seq) = (0u64, 0u64);
    loop {
        let code = cur.u8()?;
        if code == END {
            break;
        }
        let kind = TraceEventKind::from_code(code).ok_or(TraceError::UnknownKind(code))?;
        // The deltas are the file's claim: their running sums may not wrap.
        at = at.checked_add(cur.varint()?).ok_or(TraceError::BadVarint)?;
        seq = seq
            .checked_add(cur.varint()?)
            .ok_or(TraceError::BadVarint)?;
        recorder.record(SimTime(at), seq, &get_event(&mut cur, kind)?);
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(cur.bytes(8)?);
    if !cur.at_end() || u64::from_le_bytes(count) != recorder.events() {
        return Err(TraceError::BadIndex("event count"));
    }
    let mut trace = recorder.finish();
    trace.wire = TraceWire::V1;
    Ok(trace)
}

struct RecorderV1Inner {
    buf: Vec<u8>,
    prev_at: u64,
    prev_seq: u64,
    events: u64,
}

/// Records a run's event stream into the flat v1 trace format.
///
/// Shared-handle discipline matches [`crate::Recorder`]: install one
/// clone as the world's sink, keep the other to [`RecorderV1::finish`].
#[derive(Clone)]
pub struct RecorderV1 {
    inner: Rc<RefCell<RecorderV1Inner>>,
}

impl RecorderV1 {
    /// A recorder with the v1 header already encoded.
    pub fn new(meta: &TraceMeta) -> RecorderV1 {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(MAGIC_V1);
        meta.put(&mut buf);
        RecorderV1 {
            inner: Rc::new(RefCell::new(RecorderV1Inner {
                buf,
                prev_at: 0,
                prev_seq: 0,
                events: 0,
            })),
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.inner.borrow().events
    }

    /// Seals the recording — end marker, record count, content hash —
    /// and returns the LTRC1 file's bytes ([`Trace::from_bytes`] reads
    /// them back).
    pub fn finish(self) -> Vec<u8> {
        let mut inner = self.inner.borrow_mut();
        let mut bytes = std::mem::take(&mut inner.buf);
        bytes.push(END);
        bytes.extend_from_slice(&inner.events.to_le_bytes());
        let digest = sha256(&bytes);
        bytes.extend_from_slice(&digest);
        bytes
    }
}

impl TraceSink for RecorderV1 {
    fn record(&mut self, at: SimTime, seq: u64, event: &TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.buf.push(event.kind().code());
        let at = at.as_millis();
        put_varint(&mut inner.buf, at - inner.prev_at);
        put_varint(&mut inner.buf, seq - inner.prev_seq);
        inner.prev_at = at;
        inner.prev_seq = seq;
        put_event(&mut inner.buf, event);
        inner.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_writer_produces_a_valid_v1_trace() {
        let meta = TraceMeta {
            scenario: "baseline".into(),
            scale: "quick".into(),
            seed: 1,
            run_length_ms: 1_000,
        };
        let recorder = RecorderV1::new(&meta);
        let mut sink = recorder.clone();
        sink.record(SimTime(5), 1, &TraceEvent::PeerJoin { peer: 9 });
        let bytes = recorder.finish();
        // magic · header · one record (kind 9, Δt 5, Δseq 1, peer 9) ·
        // end marker · count · seal.
        assert_eq!(&bytes[..6], MAGIC_V1);
        let tail = bytes.len() - (1 + 8 + 32);
        assert_eq!(bytes[tail - 4..tail], [9, 5, 1, 9]);
        assert_eq!(bytes[tail..tail + 9], [0, 1, 0, 0, 0, 0, 0, 0, 0]);
        let trace = Trace::from_bytes(bytes).unwrap();
        assert_eq!(trace.wire(), TraceWire::V1);
        assert_eq!(trace.events(), 1);
        assert_eq!(trace.meta().unwrap(), meta);
        let records = trace.decode_all().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].event, TraceEvent::PeerJoin { peer: 9 }));
    }
}
