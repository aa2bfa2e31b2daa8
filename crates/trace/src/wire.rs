//! The varint wire layer: LEB128 integers, length-prefixed strings, and
//! the event payload schema.
//!
//! Everything in a trace file above the magic bytes is built from three
//! primitives — unsigned LEB128 varints, `varint length + UTF-8 bytes`
//! strings, and single bytes for enum codes and flags — so the format
//! needs no external serialization dependency and stays byte-stable
//! across platforms.
//!
//! Which fields each event kind carries, in which order and with which
//! types, is declared once, in `lockss_core::trace_event_table!`; the
//! `payload_schema!` expansion below turns that table into the codecs,
//! each field's type fixing its encoding: one generated write traversal
//! and one generated read constructor, both over a kind's per-field
//! columns.

use lockss_core::trace::{
    AdmissionVerdict, Label, MsgKind, PollConclusion, TraceEvent, TraceEventKind,
};

/// A malformed or corrupt trace.
#[derive(Debug)]
pub enum TraceError {
    /// The file does not start with the trace magic.
    BadMagic,
    /// The byte stream ended inside a record or header.
    Truncated,
    /// A varint ran past 10 bytes (not a valid u64).
    BadVarint,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown event kind code (trace from a newer build, or corrupt).
    UnknownKind(u8),
    /// An unknown enum payload code for the named field.
    UnknownCode {
        /// Which field carried the code.
        field: &'static str,
        /// The offending byte.
        code: u8,
    },
    /// The trailer hash does not match the content (corrupt or tampered).
    HashMismatch,
    /// A block-columnar trace ended inside a block's framed body.
    TruncatedBlock {
        /// Zero-based index of the offending block.
        block: u64,
    },
    /// A block body does not match its index digest (corrupt block).
    BadBlockChecksum {
        /// Zero-based index of the offending block.
        block: u64,
    },
    /// The block index in the trailer is malformed.
    BadIndex(&'static str),
    /// A column inside a block body failed to decode.
    BadColumn {
        /// Zero-based index of the offending block.
        block: u64,
        /// Which column failed (`kinds`, `time-delta`, ...).
        column: &'static str,
    },
    /// `trace export` at this bucket width would write more rows than
    /// it allows.
    TooManyRows {
        /// Buckets the header's run length spans.
        buckets: u64,
        /// The bucket width asked for.
        bucket_days: u64,
        /// The narrowest bucket width that fits.
        min_bucket_days: u64,
    },
    /// Reading or writing the trace file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a lockss trace (bad magic)"),
            TraceError::Truncated => write!(f, "trace truncated mid-record"),
            TraceError::BadVarint => write!(f, "malformed varint"),
            TraceError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            TraceError::UnknownKind(code) => write!(f, "unknown event kind code {code}"),
            TraceError::UnknownCode { field, code } => {
                write!(f, "unknown {field} code {code}")
            }
            TraceError::HashMismatch => {
                write!(f, "content hash mismatch: trace corrupt or tampered")
            }
            TraceError::TruncatedBlock { block } => {
                write!(f, "trace truncated inside block {block}")
            }
            TraceError::BadBlockChecksum { block } => {
                write!(f, "block {block} checksum mismatch: block corrupt")
            }
            TraceError::BadIndex(what) => write!(f, "malformed block index: {what}"),
            TraceError::BadColumn { block, column } => {
                write!(f, "malformed {column} column in block {block}")
            }
            TraceError::TooManyRows {
                buckets,
                bucket_days,
                min_bucket_days,
            } => write!(
                f,
                "the run spans {buckets} buckets of {bucket_days} days, more than the {} \
                 rows an export writes: pass --bucket-days {min_bucket_days} or wider",
                crate::export::MAX_ROWS
            ),
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// A cursor over an encoded byte slice.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.bytes.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        // Most values in every column fit one byte: that path is inlined
        // into each column loop, the rest is a call.
        if let Some(&byte) = self.bytes.get(self.pos) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        self.multi_byte_varint()
    }

    /// [`Cursor::varint`] past its one-byte case.
    #[cold]
    fn multi_byte_varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            if shift == 9 && byte > 0x01 {
                return Err(TraceError::BadVarint);
            }
            v |= u64::from(byte & 0x7f) << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceError::BadVarint)
    }

    /// Reads a varint and narrows it to u32.
    pub fn varint_u32(&mut self) -> Result<u32, TraceError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| TraceError::BadVarint)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).ok_or(TraceError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        String::from_utf8(slice.to_vec()).map_err(|_| TraceError::BadUtf8)
    }

    /// Reads a flag byte: 0 or 1, nothing else, so that decoding and
    /// re-encoding an accepted trace reproduces its bytes.
    pub fn bool(&mut self) -> Result<bool, TraceError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            code => Err(TraceError::UnknownCode {
                field: "flag",
                code,
            }),
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }
}

/// How one payload field type lies on the wire. The five encodings of
/// the format: `varint` (u32, and u64), a `u8` enum code, a `u8` flag,
/// and a length-prefixed `str` (a [`Label`]).
trait Field: Sized {
    /// True when the encoding is a canonical varint, which makes the
    /// zigzag-delta column re-code lossless for a column of them. Enum
    /// codes and flags are single bytes < 0x80, so they are canonical
    /// one-byte varints; only `str` is not.
    const VARINT: bool = true;
    fn put(&self, buf: &mut Vec<u8>);
    fn get(cur: &mut Cursor<'_>) -> Result<Self, TraceError>;
}

impl Field for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }
    fn get(cur: &mut Cursor<'_>) -> Result<u32, TraceError> {
        cur.varint_u32()
    }
}

impl Field for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<u64, TraceError> {
        cur.varint()
    }
}

impl Field for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn get(cur: &mut Cursor<'_>) -> Result<bool, TraceError> {
        cur.bool()
    }
}

/// A label lies on the wire as its string and decodes to the declared
/// [`Label`] of that spelling, its bytes compared in place with the
/// declared labels' bytes. Bytes equal to a declared label are UTF-8 by
/// construction, so no UTF-8 pass runs. Anything else — a string the
/// table does not declare, bytes that are not UTF-8, a cut-off string — is
/// a bad `label` column; the block decoder fills in the block.
impl Field for Label {
    const VARINT: bool = false;
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.label());
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Label, TraceError> {
        let declared = |cur: &mut Cursor<'_>| {
            let len = cur.varint().ok()? as usize;
            Label::from_label(cur.bytes(len).ok()?)
        };
        declared(cur).ok_or(TraceError::BadColumn {
            block: 0,
            column: "label",
        })
    }
}

/// A `u8` enum code field; `$label` names it in [`TraceError::UnknownCode`].
macro_rules! code_field {
    ($ty:ty, $label:literal) => {
        impl Field for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.push(self.code());
            }
            fn get(cur: &mut Cursor<'_>) -> Result<$ty, TraceError> {
                let code = cur.u8()?;
                <$ty>::from_code(code).ok_or(TraceError::UnknownCode {
                    field: $label,
                    code,
                })
            }
        }
    };
}

code_field!(PollConclusion, "poll conclusion");
code_field!(MsgKind, "message kind");
code_field!(AdmissionVerdict, "admission verdict");

/// Expands the event table — each kind's fields in encoding order, each
/// field's type fixing its encoding through [`Field`] — into the one write
/// traversal, the one read constructor, and the two facts the column
/// layout needs about a kind. The running `i` is a constant after
/// inlining.
macro_rules! payload_schema {
    ($($(#[$doc:meta])* $kind:ident = $code:literal => $label:literal {
        $($(#[$field_doc:meta])* $field:ident: $ty:ty,)+
    })+) => {
        /// Encodes one event payload into its kind's columns, field `i`
        /// into `cols[i]` (the kind byte is framed by the caller).
        pub(crate) fn put_event(cols: &mut [Vec<u8>], event: &TraceEvent) {
            let mut i = 0;
            match event {
                $(TraceEvent::$kind { $($field),+ } => {
                    $(
                        i += 1;
                        $field.put(&mut cols[i - 1]);
                    )+
                })+
            }
        }

        /// Decodes one event payload of the given kind, field `i` from
        /// `cols[i]`.
        pub(crate) fn get_event(
            cols: &mut [Cursor<'_>],
            kind: TraceEventKind,
        ) -> Result<TraceEvent, TraceError> {
            let mut i = 0;
            Ok(match kind {
                $(TraceEventKind::$kind => TraceEvent::$kind {
                    $($field: {
                        i += 1;
                        <$ty as Field>::get(&mut cols[i - 1])?
                    }),+
                },)+
            })
        }

        /// Number of payload fields of `kind` — the columns it occupies
        /// in the v2 block layout, where each field lives in its own
        /// column so repetitive fields (poll ids, AU ids, enum codes,
        /// flags) compress independently of high-entropy ones (peer ids).
        pub(crate) fn field_count(kind: TraceEventKind) -> usize {
            match kind {
                $(TraceEventKind::$kind => [$(stringify!($field)),+].len(),)+
            }
        }

        /// True when field `field` of `kind`'s payload is a canonical
        /// varint stream in the column layout (see [`Field::VARINT`]).
        pub(crate) fn field_is_varint(kind: TraceEventKind, field: usize) -> bool {
            match kind {
                $(TraceEventKind::$kind => [$(<$ty as Field>::VARINT),+][field],)+
            }
        }
    };
}

// The payload schema is the event table, in kind-code order. Its rows
// are the table in docs/FORMATS.md ("Event kinds and payload schema"); a
// unit test below holds the two to each other row by row.
lockss_core::trace_event_table!(payload_schema);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v, "value {v}");
            assert!(cur.at_end());
        }
    }

    #[test]
    fn varint_sizes_are_compact() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 10_000);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xffu8; 11];
        let mut cur = Cursor::new(&buf);
        assert!(matches!(cur.varint(), Err(TraceError::BadVarint)));
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "churn-storm/depart");
        put_str(&mut buf, "");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.str().unwrap(), "churn-storm/depart");
        assert_eq!(cur.str().unwrap(), "");
        assert!(cur.at_end());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut cur = Cursor::new(&buf[..3]);
        assert!(matches!(cur.str(), Err(TraceError::Truncated)));
        let mut empty = Cursor::new(&[]);
        assert!(matches!(empty.u8(), Err(TraceError::Truncated)));
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PollStart {
                peer: 3,
                au: 1,
                poll: 900,
            },
            TraceEvent::PollOutcome {
                peer: 3,
                au: 1,
                poll: 900,
                conclusion: PollConclusion::Inconclusive,
                votes: 9,
            },
            TraceEvent::MessageSend {
                from: 10,
                to: 99,
                kind: MsgKind::RepairRequest,
                au: 0,
                poll: 17,
                suppressed: true,
            },
            TraceEvent::Admission {
                peer: 5,
                poller: 1 << 33,
                verdict: AdmissionVerdict::Refractory,
            },
            TraceEvent::Damage {
                peer: 7,
                au: 2,
                block: 499,
                was_intact: true,
            },
            TraceEvent::Repair {
                peer: 7,
                au: 2,
                poll: 31,
                block: 499,
                intact_after: false,
            },
            TraceEvent::AdversaryTimer {
                channel: 2,
                tag: u64::MAX,
            },
            TraceEvent::AdversaryAction {
                channel: 2,
                label: Label::SybilRampEscalate,
                magnitude: 25,
            },
            TraceEvent::PeerJoin { peer: 101 },
            TraceEvent::PhaseMark {
                label: Label::AdmissionFlood,
            },
            TraceEvent::Compromise {
                peer: 42,
                corrupted: 6,
            },
            TraceEvent::Cure {
                peer: 42,
                residual: 1 << 40,
            },
            TraceEvent::PoisonedRepair {
                peer: 7,
                au: 2,
                poll: 31,
                block: 499,
                server: 42,
            },
        ]
    }

    #[test]
    fn every_event_payload_roundtrips() {
        // The sample list covers all 13 kinds; assert so a new kind can't
        // silently skip this test.
        assert_eq!(sample_events().len(), TraceEventKind::COUNT);
        for event in sample_events() {
            let kind = event.kind();
            let mut cols: Vec<Vec<u8>> = vec![Vec::new(); field_count(kind)];
            put_event(&mut cols, &event);
            assert!(
                cols.iter().all(|c| !c.is_empty()),
                "{kind:?}: every declared field column must be written"
            );
            let mut cursors: Vec<Cursor<'_>> = cols.iter().map(|c| Cursor::new(c)).collect();
            assert_eq!(get_event(&mut cursors, kind).unwrap(), event);
            assert!(
                cursors.iter().all(Cursor::at_end),
                "trailing bytes after {event}"
            );
        }
    }

    /// The payload table in docs/FORMATS.md is the schema above, row by
    /// row: kinds in code order, one `varint`/`u8`/`str` entry per field.
    #[test]
    fn formats_doc_payload_table_matches_the_schema() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/FORMATS.md"
        ))
        .expect("docs/FORMATS.md exists");
        let rows: Vec<Vec<&str>> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| Code | Kind |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        assert_eq!(rows.len(), TraceEventKind::COUNT);
        for (row, kind) in rows.iter().zip(TraceEventKind::ALL) {
            assert_eq!(row[0], kind.code().to_string());
            assert_eq!(row[1], format!("`{kind:?}`"));
            let fields: Vec<&str> = row[2].split(" · ").collect();
            assert_eq!(fields.len(), field_count(kind), "{kind:?}");
            for (i, field) in fields.iter().enumerate() {
                let encoding = field.split(' ').next().unwrap();
                assert!(["varint", "u8", "str"].contains(&encoding), "{field}");
                assert_eq!(
                    encoding != "str",
                    field_is_varint(kind, i),
                    "{kind:?}: {field}"
                );
            }
        }
    }

    #[test]
    fn flag_bytes_other_than_0_and_1_are_rejected() {
        for (byte, want) in [(0u8, Some(false)), (1, Some(true)), (2, None), (255, None)] {
            let buf = [byte];
            match (Cursor::new(&buf).bool(), want) {
                (Ok(got), Some(want)) => assert_eq!(got, want),
                (
                    Err(TraceError::UnknownCode {
                        field: "flag",
                        code,
                    }),
                    None,
                ) => {
                    assert_eq!(code, byte)
                }
                other => panic!("flag byte {byte}: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_payload_codes_are_reported() {
        // peer 1 · poller 2 · a bogus verdict code
        let cols: [&[u8]; 3] = [&[1], &[2], &[99]];
        let mut cursors = cols.map(Cursor::new);
        match get_event(&mut cursors, TraceEventKind::Admission) {
            Err(TraceError::UnknownCode { field, code: 99 }) => {
                assert_eq!(field, "admission verdict");
            }
            other => panic!("expected UnknownCode, got {other:?}"),
        }
    }
}
