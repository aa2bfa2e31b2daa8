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

/// Hashes four input bytes, read as a little-endian word.
#[inline]
fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the longest common prefix of `a` and `b` (`b` is the
/// shorter: a suffix of the input `a` starts earlier in), compared eight
/// bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if x != y {
            return len + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
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

/// The reusable half of the compressor: the 4-byte-match hash table.
///
/// A fresh table is 128 KiB to allocate and fill, and a recording
/// compresses thousands of columns, many a few bytes long, so the block
/// sealer keeps one `Compressor` and every column goes through it. Table
/// entries are stamped with a base that moves past each input, so
/// entries left by an earlier call read as empty without a refill: the
/// matcher sees exactly the candidates a fresh table would give it, and
/// the output is the same bytes.
#[derive(Default)]
pub struct Compressor {
    /// `base + position + 1` of the last occurrence of each hash; entries
    /// at or below `base` (a zeroed table's included) belong to no
    /// position of this input. Allocated by the first input long enough
    /// to need it.
    table: Vec<usize>,
    base: usize,
}

impl Compressor {
    /// Compresses `input`, appending the stream to `out`. The stream
    /// carries no length header; callers frame both the raw and stored
    /// lengths (the column framing does).
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        let n = input.len();
        if n < MIN_MATCH {
            emit_literals(out, input, n, n);
            return;
        }
        if self.table.is_empty() {
            self.table = vec![0; 1 << HASH_BITS];
        }
        let base = self.base;
        self.base += n;
        let table: &mut [usize; 1 << HASH_BITS] = self
            .table
            .as_mut_slice()
            .try_into()
            .expect("the table is allocated at its one size");
        let word = |at: usize| {
            let bytes: [u8; 4] = input[at..at + 4].try_into().expect("4 bytes");
            u32::from_le_bytes(bytes)
        };
        let mut pos = 0usize;
        let mut lit = 0usize;
        // The last 3 bytes can never start a match.
        let limit = n - (MIN_MATCH - 1);
        while pos < limit {
            let here = word(pos);
            let h = hash4(here);
            let stamped = table[h];
            table[h] = base + pos + 1;
            let matched = stamped > base && {
                let cand = stamped - base - 1;
                pos - cand <= MAX_OFFSET && word(cand) == here
            };
            if !matched {
                lit += 1;
                pos += 1;
                continue;
            }
            let cand = stamped - base - 1;
            emit_literals(out, input, pos, lit);
            // Extend the match as far as it goes, emitting ≤67-byte ops.
            let offset = pos - cand;
            let len =
                MIN_MATCH + common_prefix(&input[cand + MIN_MATCH..], &input[pos + MIN_MATCH..]);
            let mut rest = len;
            while rest >= MIN_MATCH {
                let chunk = rest.min(67);
                // Never leave a sub-MIN_MATCH tail that can't be emitted.
                let chunk = if rest - chunk > 0 && rest - chunk < MIN_MATCH {
                    rest - MIN_MATCH
                } else {
                    chunk
                };
                emit_copy(out, offset, chunk);
                rest -= chunk;
            }
            lit = rest; // 0..=3 uncopied bytes become literals
            pos += len - rest;
        }
        lit += n - pos;
        emit_literals(out, input, n, lit);
    }
}

/// Compresses `input` through a one-shot [`Compressor`].
#[cfg(test)]
pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Compressor::default().compress_into(input, &mut out);
    out
}

/// No stream expands by more than this factor: the densest op, a far
/// copy, turns 3 stream bytes into 67 output bytes.
const MAX_EXPANSION: usize = 23;

/// Decompresses a stream produced by [`Compressor::compress_into`]
/// into exactly `raw_len` bytes, replacing the contents of `out` (whose
/// capacity is what a reader reuses from column to column). Any
/// malformed op, overrun, or length mismatch is an error (reported as a
/// plain message; the column framing attributes it).
///
/// `raw_len` comes from the file, so it is checked against what `stream`
/// can legally expand to *before* it sizes the output buffer: a header
/// claiming 2⁶⁰ bytes is an error, not an allocation.
pub fn decompress_into(
    stream: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    out.clear();
    if raw_len > stream.len().saturating_mul(MAX_EXPANSION) {
        return Err("declared length exceeds what the stream can expand to");
    }
    out.reserve(raw_len);
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
                copy_back(out, offset, len)?;
            }
            2 => {
                let len = ((tag >> 2) as usize) + 4;
                let raw = stream.get(pos..pos + 2).ok_or("truncated far copy")?;
                pos += 2;
                let offset = u16::from_le_bytes([raw[0], raw[1]]) as usize;
                copy_back(out, offset, len)?;
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
    Ok(())
}

/// Appends `len` bytes copied from `offset` back. A copy that overlaps
/// its own output (offset < len: a run) repeats the `offset`-byte
/// period, so it goes in chunks that double as the written part grows.
fn copy_back(out: &mut Vec<u8>, offset: usize, len: usize) -> Result<(), &'static str> {
    if offset == 0 || offset > out.len() {
        return Err("copy offset out of range");
    }
    let start = out.len() - offset;
    let mut done = 0;
    while done < len {
        let chunk = (len - done).min(offset + done);
        out.extend_from_within(start..start + chunk);
        done += chunk;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decompress(stream: &[u8], raw_len: usize) -> Result<Vec<u8>, &'static str> {
        // Stale contents must never leak into a decode.
        let mut out = vec![0xEE; 7];
        decompress_into(stream, raw_len, &mut out).map(|()| out)
    }

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

    /// One `Compressor` fed many inputs emits, for each, the bytes a
    /// fresh one would: entries left in the table by earlier inputs
    /// (here deliberately similar ones, so stale candidates would match
    /// if they were visible) never reach the matcher.
    #[test]
    fn a_reused_compressor_emits_the_bytes_of_a_fresh_one() {
        let mut x = 7u64;
        let mut noise = |n: usize, modulus: u64| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) % modulus) as u8
                })
                .collect()
        };
        let mut inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"abc".to_vec(),
            b"abcdabcdabcd".to_vec(),
            b"abcdabcdabcd".to_vec(),
            vec![0; 70_000],
        ];
        for n in [5, 64, 4_000, 200_000] {
            inputs.push(noise(n, 3));
            inputs.push(noise(n, 251));
        }
        let mut shared = Compressor::default();
        for round in 0..2 {
            for input in &inputs {
                let mut out = vec![0xEE; 3];
                shared.compress_into(input, &mut out);
                assert_eq!(out[..3], [0xEE; 3], "appends, never overwrites");
                assert_eq!(
                    out[3..],
                    compress(input),
                    "round {round}, input of {} bytes",
                    input.len()
                );
            }
        }
    }

    /// Overlapping copies repeat the `offset`-byte period whatever the
    /// offset/length pair: held to the byte-at-a-time definition.
    #[test]
    fn overlapping_copies_repeat_their_period() {
        for offset in 1..=9usize {
            for len in [4usize, 5, 11, 12, 33, 67] {
                let seed: Vec<u8> = (1..=9u8).collect();
                let mut stream = vec![((seed.len() - 1) as u8) << 2];
                stream.extend_from_slice(&seed);
                stream.push(0x02 | (((len - 4) as u8) << 2));
                stream.extend_from_slice(&(offset as u16).to_le_bytes());
                let mut want = seed.clone();
                for i in 0..len {
                    want.push(want[seed.len() - offset + i]);
                }
                assert_eq!(
                    decompress(&stream, want.len()).expect("decodes"),
                    want,
                    "offset {offset} len {len}"
                );
            }
        }
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
