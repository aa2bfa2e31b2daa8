//! A small self-hosted LZ codec for trace columns.
//!
//! The offline dependency policy bans pulling a compression crate, and the
//! columnar layout makes one unnecessary: delta-coded varint columns are
//! dominated by short repeating byte patterns (runs of `0x00`/`0x01`
//! deltas, near-identical payload encodings grouped by kind), which a
//! byte-aligned LZ with a greedy hash-table matcher compresses well at
//! memory-bandwidth-ish speed. The format is snappy-shaped:
//!
//! ```text
//! tag & 3 == 0   literal run: len = (tag >> 2) + 1   (1..=64), bytes follow
//! tag & 3 == 1   near copy:   len = ((tag >> 2) & 7) + 4 (4..=11),
//!                offset = ((tag >> 5) << 8) | next byte   (1..=2047)
//! tag & 3 == 2   far copy:    len = (tag >> 2) + 4   (4..=67),
//!                offset = next two bytes LE              (1..=65535)
//! tag & 3 == 3   reserved (decode error)
//! ```
//!
//! Copies may overlap their destination (offset 1 is byte run-length
//! encoding). Compression is deterministic — greedy matching against a
//! last-occurrence hash table — so the same input always yields the same
//! bytes, which the trace format's content hashes rely on.

/// Matches at least this many bytes before a copy pays for itself.
const MIN_MATCH: usize = 4;

/// Far copies address at most this far back.
const MAX_OFFSET: usize = 65_535;

/// Hash-table size (power of two) for 4-byte match candidates.
const HASH_BITS: u32 = 14;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Flushes `lit` pending literal bytes ending at `pos` into `out`.
fn emit_literals(out: &mut Vec<u8>, input: &[u8], pos: usize, lit: usize) {
    let mut start = pos - lit;
    while start < pos {
        let n = (pos - start).min(64);
        out.push(((n - 1) as u8) << 2);
        out.extend_from_slice(&input[start..start + n]);
        start += n;
    }
}

/// Emits one copy op (caller guarantees `4 <= len <= 67`, offset bounds).
fn emit_copy(out: &mut Vec<u8>, offset: usize, len: usize) {
    debug_assert!((MIN_MATCH..=67).contains(&len));
    debug_assert!((1..=MAX_OFFSET).contains(&offset));
    if len <= 11 && offset < 2048 {
        out.push(0x01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
        out.push((offset & 0xff) as u8);
    } else {
        out.push(0x02 | (((len - 4) as u8) << 2));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    }
}

/// Compresses `input`. The output carries no length header; callers frame
/// both the raw and stored lengths (the column framing does).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let n = input.len();
    if n < MIN_MATCH {
        emit_literals(&mut out, input, n, n);
        return out;
    }
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut lit = 0usize;
    // The last 3 bytes can never start a match.
    let limit = n - (MIN_MATCH - 1);
    while pos < limit {
        let h = hash4(&input[pos..]);
        let cand = table[h];
        table[h] = pos;
        let matched = cand != usize::MAX
            && pos - cand <= MAX_OFFSET
            && input[cand..cand + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if !matched {
            lit += 1;
            pos += 1;
            continue;
        }
        emit_literals(&mut out, input, pos, lit);
        // Extend the match as far as it goes, emitting ≤67-byte ops.
        let offset = pos - cand;
        let mut len = MIN_MATCH;
        while pos + len < n && input[cand + len] == input[pos + len] {
            len += 1;
        }
        let mut rest = len;
        while rest >= MIN_MATCH {
            let chunk = rest.min(67);
            // Never leave a sub-MIN_MATCH tail that can't be emitted.
            let chunk = if rest - chunk > 0 && rest - chunk < MIN_MATCH {
                rest - MIN_MATCH
            } else {
                chunk
            };
            emit_copy(&mut out, offset, chunk);
            rest -= chunk;
        }
        lit = rest; // 0..=3 uncopied bytes become literals
        pos += len - rest;
    }
    lit += n - pos;
    emit_literals(&mut out, input, n, lit);
    out
}

/// No stream expands by more than this factor: the densest op, a far
/// copy, turns 3 stream bytes into 67 output bytes.
const MAX_EXPANSION: usize = 23;

/// Decompresses a stream produced by [`compress`] into exactly
/// `raw_len` bytes. Any malformed op, overrun, or length mismatch is an
/// error (reported as a plain message; the column framing attributes it).
///
/// `raw_len` comes from the file, so it is checked against what `stream`
/// can legally expand to *before* it sizes the output buffer: a header
/// claiming 2⁶⁰ bytes is an error, not an allocation.
pub fn decompress(stream: &[u8], raw_len: usize) -> Result<Vec<u8>, &'static str> {
    if raw_len > stream.len().saturating_mul(MAX_EXPANSION) {
        return Err("declared length exceeds what the stream can expand to");
    }
    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    while pos < stream.len() {
        let tag = stream[pos];
        pos += 1;
        match tag & 3 {
            0 => {
                let len = ((tag >> 2) as usize) + 1;
                let end = pos.checked_add(len).ok_or("literal overflow")?;
                let bytes = stream.get(pos..end).ok_or("truncated literal run")?;
                out.extend_from_slice(bytes);
                pos = end;
            }
            1 => {
                let len = (((tag >> 2) & 7) as usize) + 4;
                let lo = *stream.get(pos).ok_or("truncated near copy")?;
                pos += 1;
                let offset = (((tag >> 5) as usize) << 8) | lo as usize;
                copy_back(&mut out, offset, len)?;
            }
            2 => {
                let len = ((tag >> 2) as usize) + 4;
                let raw = stream.get(pos..pos + 2).ok_or("truncated far copy")?;
                pos += 2;
                let offset = u16::from_le_bytes([raw[0], raw[1]]) as usize;
                copy_back(&mut out, offset, len)?;
            }
            _ => return Err("reserved op tag"),
        }
        if out.len() > raw_len {
            return Err("output overruns declared length");
        }
    }
    if out.len() != raw_len {
        return Err("output shorter than declared length");
    }
    Ok(out)
}

/// Appends `len` bytes copied from `offset` back (overlap-safe).
fn copy_back(out: &mut Vec<u8>, offset: usize, len: usize) -> Result<(), &'static str> {
    if offset == 0 || offset > out.len() {
        return Err("copy offset out of range");
    }
    let start = out.len() - offset;
    for i in 0..len {
        let b = out[start + i];
        out.push(b);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let comp = compress(data);
        assert_eq!(
            decompress(&comp, data.len()).expect("decodes"),
            data,
            "roundtrip of {} bytes",
            data.len()
        );
        comp.len()
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 1000]);
        roundtrip(&[7u8; 3]);
        let long_lit: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        roundtrip(&long_lit);
    }

    #[test]
    fn repetitive_data_shrinks_hard() {
        let runs: Vec<u8> = std::iter::repeat_n([0u8, 0, 1, 0], 4096)
            .flatten()
            .collect();
        let comp_len = roundtrip(&runs);
        assert!(
            comp_len * 8 < runs.len(),
            "{comp_len} of {} bytes",
            runs.len()
        );
    }

    #[test]
    fn pseudorandom_data_survives() {
        // splitmix-ish determinstic noise: barely compressible, must
        // still roundtrip byte-exactly.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn compression_is_deterministic() {
        let data: Vec<u8> = (0..5000).map(|i| (i % 37) as u8).collect();
        assert_eq!(compress(&data), compress(&data));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert!(decompress(&[0x03], 4).is_err(), "reserved tag");
        assert!(decompress(&[0x00], 1).is_err(), "truncated literal");
        assert!(decompress(&[0x01], 4).is_err(), "truncated near copy");
        assert!(decompress(&[0x02, 0x01], 4).is_err(), "truncated far copy");
        // Copy before any output exists.
        assert!(decompress(&[0x01, 0x01], 4).is_err(), "offset out of range");
        // Declared length mismatches.
        let comp = compress(b"hello world hello world");
        assert!(decompress(&comp, 5).is_err(), "overrun");
        assert!(decompress(&comp, 500).is_err(), "underrun");
    }

    /// The declared length is untrusted: one the stream cannot reach is
    /// rejected before anything is reserved for it (reserving 2⁶⁰ bytes
    /// aborts the process), and the densest legal stream still decodes.
    #[test]
    fn hostile_declared_lengths_are_errors_not_allocations() {
        let comp = compress(&[7u8; 4096]);
        for claimed in [1usize << 60, usize::MAX, comp.len() * MAX_EXPANSION + 1] {
            assert!(decompress(&comp, claimed).is_err(), "claimed {claimed}");
        }
        assert!(decompress(&[], 1 << 60).is_err(), "empty stream");
        // One literal byte, then maximal far copies of it: 3 bytes -> 67.
        let mut dense = vec![0x00, 0xAB];
        for _ in 0..1_000 {
            dense.extend_from_slice(&[0x02 | (63 << 2), 0x01, 0x00]);
        }
        let out = decompress(&dense, 1 + 67 * 1_000).expect("within the bound");
        assert!(out.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn overlapping_copies_rle() {
        // A run long enough to force overlap copies from offset 1.
        let data = [9u8; 500];
        let comp = compress(&data);
        assert!(comp.len() < 30, "rle path: {} bytes", comp.len());
        assert_eq!(decompress(&comp, 500).unwrap(), data);
    }
}
