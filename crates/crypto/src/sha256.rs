//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Streaming [`Sha256`] hasher plus the one-shot [`sha256`] helper. Verified
//! against the NIST test vectors in the unit tests below.
//!
//! The compression function is fully unrolled — 64 rounds expanded with the
//! message schedule kept in a 16-word circular window — and `update`
//! compresses aligned 64-byte runs straight out of the caller's slice, so
//! the only per-block memory traffic is the sixteen schedule loads.
//! `finalize` assembles the padding in place (one compress call for short
//! tails, two when the length field doesn't fit) instead of feeding padding
//! bytes through `update` one at a time.
//!
//! On x86-64 machines with the SHA extensions (detected once at runtime,
//! cached by `is_x86_feature_detected!`), multi-block runs go through the
//! `SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2` instructions instead; the output
//! is bit-identical to the portable core, which every other architecture
//! uses unconditionally.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 32-byte digest.
pub type Digest = [u8; 32];

/// Streaming SHA-256 state.
///
/// # Examples
///
/// ```
/// use lockss_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(d: &[u8]) -> String {
///     d.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (message length).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

#[inline(always)]
fn load_be(block: &[u8], i: usize) -> u32 {
    u32::from_be_bytes([
        block[i * 4],
        block[i * 4 + 1],
        block[i * 4 + 2],
        block[i * 4 + 3],
    ])
}

/// One compression of a 64-byte block into `state`.
///
/// Fully unrolled: the 16-word schedule window lives in locals, the eight
/// working variables rotate through the round macro by renaming rather than
/// shuffling, and rounds 16–63 extend the schedule in place.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert!(block.len() >= 64);
    let mut w00 = load_be(block, 0);
    let mut w01 = load_be(block, 1);
    let mut w02 = load_be(block, 2);
    let mut w03 = load_be(block, 3);
    let mut w04 = load_be(block, 4);
    let mut w05 = load_be(block, 5);
    let mut w06 = load_be(block, 6);
    let mut w07 = load_be(block, 7);
    let mut w08 = load_be(block, 8);
    let mut w09 = load_be(block, 9);
    let mut w10 = load_be(block, 10);
    let mut w11 = load_be(block, 11);
    let mut w12 = load_be(block, 12);
    let mut w13 = load_be(block, 13);
    let mut w14 = load_be(block, 14);
    let mut w15 = load_be(block, 15);

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round: t1/t2 with ch and maj in their 3-op forms; the caller
    // rotates the register names so no value ever moves.
    macro_rules! round {
        ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident, $k:expr, $w:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = $g ^ ($e & ($f ^ $g));
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add($k)
                .wrapping_add($w);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) | ($c & ($a | $b));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        }};
    }

    // Schedule extension in the circular window: w[i] += s0(w[i+1]) +
    // w[i+9] + s1(w[i+14]), indices mod 16.
    macro_rules! sched {
        ($wi:ident, $w1:ident, $w9:ident, $w14:ident) => {{
            let s0 = $w1.rotate_right(7) ^ $w1.rotate_right(18) ^ ($w1 >> 3);
            let s1 = $w14.rotate_right(17) ^ $w14.rotate_right(19) ^ ($w14 >> 10);
            $wi = $wi.wrapping_add(s0).wrapping_add($w9).wrapping_add(s1);
            $wi
        }};
    }

    // 16 rounds with the register rotation written out; `$w` names the
    // schedule word for each round in this group.
    macro_rules! round16 {
        ($k:expr, $w0:expr,$w1:expr,$w2:expr,$w3:expr,$w4:expr,$w5:expr,$w6:expr,$w7:expr,
         $w8:expr,$w9:expr,$w10:expr,$w11:expr,$w12:expr,$w13:expr,$w14:expr,$w15:expr) => {{
            round!(a, b, c, d, e, f, g, h, K[$k], $w0);
            round!(h, a, b, c, d, e, f, g, K[$k + 1], $w1);
            round!(g, h, a, b, c, d, e, f, K[$k + 2], $w2);
            round!(f, g, h, a, b, c, d, e, K[$k + 3], $w3);
            round!(e, f, g, h, a, b, c, d, K[$k + 4], $w4);
            round!(d, e, f, g, h, a, b, c, K[$k + 5], $w5);
            round!(c, d, e, f, g, h, a, b, K[$k + 6], $w6);
            round!(b, c, d, e, f, g, h, a, K[$k + 7], $w7);
            round!(a, b, c, d, e, f, g, h, K[$k + 8], $w8);
            round!(h, a, b, c, d, e, f, g, K[$k + 9], $w9);
            round!(g, h, a, b, c, d, e, f, K[$k + 10], $w10);
            round!(f, g, h, a, b, c, d, e, K[$k + 11], $w11);
            round!(e, f, g, h, a, b, c, d, K[$k + 12], $w12);
            round!(d, e, f, g, h, a, b, c, K[$k + 13], $w13);
            round!(c, d, e, f, g, h, a, b, K[$k + 14], $w14);
            round!(b, c, d, e, f, g, h, a, K[$k + 15], $w15);
        }};
    }

    round16!(0, w00, w01, w02, w03, w04, w05, w06, w07, w08, w09, w10, w11, w12, w13, w14, w15);
    round16!(
        16,
        sched!(w00, w01, w09, w14),
        sched!(w01, w02, w10, w15),
        sched!(w02, w03, w11, w00),
        sched!(w03, w04, w12, w01),
        sched!(w04, w05, w13, w02),
        sched!(w05, w06, w14, w03),
        sched!(w06, w07, w15, w04),
        sched!(w07, w08, w00, w05),
        sched!(w08, w09, w01, w06),
        sched!(w09, w10, w02, w07),
        sched!(w10, w11, w03, w08),
        sched!(w11, w12, w04, w09),
        sched!(w12, w13, w05, w10),
        sched!(w13, w14, w06, w11),
        sched!(w14, w15, w07, w12),
        sched!(w15, w00, w08, w13)
    );
    round16!(
        32,
        sched!(w00, w01, w09, w14),
        sched!(w01, w02, w10, w15),
        sched!(w02, w03, w11, w00),
        sched!(w03, w04, w12, w01),
        sched!(w04, w05, w13, w02),
        sched!(w05, w06, w14, w03),
        sched!(w06, w07, w15, w04),
        sched!(w07, w08, w00, w05),
        sched!(w08, w09, w01, w06),
        sched!(w09, w10, w02, w07),
        sched!(w10, w11, w03, w08),
        sched!(w11, w12, w04, w09),
        sched!(w12, w13, w05, w10),
        sched!(w13, w14, w06, w11),
        sched!(w14, w15, w07, w12),
        sched!(w15, w00, w08, w13)
    );
    round16!(
        48,
        sched!(w00, w01, w09, w14),
        sched!(w01, w02, w10, w15),
        sched!(w02, w03, w11, w00),
        sched!(w03, w04, w12, w01),
        sched!(w04, w05, w13, w02),
        sched!(w05, w06, w14, w03),
        sched!(w06, w07, w15, w04),
        sched!(w07, w08, w00, w05),
        sched!(w08, w09, w01, w06),
        sched!(w09, w10, w02, w07),
        sched!(w10, w11, w03, w08),
        sched!(w11, w12, w04, w09),
        sched!(w12, w13, w05, w10),
        sched!(w13, w14, w06, w11),
        sched!(w14, w15, w07, w12),
        sched!(w15, w00, w08, w13)
    );

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compresses every whole 64-byte block at the front of `data` (length need
/// not be a multiple of 64; the tail is the caller's problem). Dispatches to
/// the SHA-NI backend when the CPU has it.
#[inline]
fn compress_many(state: &mut [u32; 8], data: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        // The feature probe is a cached atomic load after the first call.
        if data.len() >= 64
            && is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
        {
            // SAFETY: the required target features were just verified.
            unsafe { ni::compress_many(state, data) };
            return;
        }
    }
    let mut rest = data;
    while rest.len() >= 64 {
        compress(state, rest);
        rest = &rest[64..];
    }
}

/// The x86-64 SHA-extensions backend. Follows Intel's reference flow: state
/// repacked into the ABEF/CDGH register layout, four rounds per
/// `SHA256RNDS2` pair, message schedule advanced with `SHA256MSG1`/`MSG2`.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Advances the schedule one 4-word group: returns `w[g]` from
    /// `w[g-4..g]`.
    #[inline(always)]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        unsafe {
            let t1 = _mm_sha256msg1_epu32(v0, v1);
            let t2 = _mm_alignr_epi8(v3, v2, 4);
            let t3 = _mm_add_epi32(t1, t2);
            _mm_sha256msg2_epu32(t3, v3)
        }
    }

    /// # Safety
    ///
    /// Requires the `sha`, `sse4.1`, and `ssse3` CPU features.
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    pub(super) unsafe fn compress_many(state: &mut [u32; 8], data: &[u8]) {
        unsafe {
            // Repack [a,b,c,d][e,f,g,h] into the ABEF/CDGH lanes the
            // instructions expect.
            let tmp = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
            let mut cdgh = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
            let tmp = _mm_shuffle_epi32(tmp, 0xB1);
            cdgh = _mm_shuffle_epi32(cdgh, 0x1B);
            let mut abef = _mm_alignr_epi8(tmp, cdgh, 8);
            cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

            // Big-endian word loads.
            let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

            macro_rules! rounds4 {
                ($w:expr, $g:expr) => {{
                    let wk = _mm_add_epi32(
                        $w,
                        _mm_loadu_si128(K.as_ptr().add($g * 4).cast::<__m128i>()),
                    );
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk_hi);
                }};
            }

            let mut rest = data;
            while rest.len() >= 64 {
                let abef_save = abef;
                let cdgh_save = cdgh;
                let p = rest.as_ptr().cast::<__m128i>();
                let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
                let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
                let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
                let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
                rounds4!(w0, 0);
                rounds4!(w1, 1);
                rounds4!(w2, 2);
                rounds4!(w3, 3);
                let mut g = 4;
                while g < 16 {
                    let w4 = schedule(w0, w1, w2, w3);
                    rounds4!(w4, g);
                    (w0, w1, w2, w3) = (w1, w2, w3, w4);
                    g += 1;
                }
                abef = _mm_add_epi32(abef, abef_save);
                cdgh = _mm_add_epi32(cdgh, cdgh_save);
                rest = &rest[64..];
            }

            // Unpack back to [a,b,c,d][e,f,g,h].
            let tmp = _mm_shuffle_epi32(abef, 0x1B);
            let cdgh_sh = _mm_shuffle_epi32(cdgh, 0xB1);
            let abcd = _mm_blend_epi16(tmp, cdgh_sh, 0xF0);
            let efgh = _mm_alignr_epi8(cdgh_sh, tmp, 8);
            _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), abcd);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), efgh);
        }
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Aligned 64-byte runs compress directly out of `data`; only a
    /// sub-block head (completing a previously buffered partial block) or
    /// tail touches the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_many(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress_many(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding assembled in place: 0x80, zeros to 56 mod 64, then the
        // 64-bit big-endian bit length. One compress if the tail leaves
        // room for the 9 padding-plus-length bytes, two otherwise.
        self.buf[self.buf_len] = 0x80;
        if self.buf_len < 56 {
            self.buf[self.buf_len + 1..56].fill(0);
        } else {
            self.buf[self.buf_len + 1..64].fill(0);
            let block = self.buf;
            compress_many(&mut self.state, &block);
            self.buf[..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress_many(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Renders a digest (or any byte slice) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        to_hex(d)
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Exact-block-multiple inputs exercise the one-compress finalize path
    /// with an empty tail (`buf_len == 0`, pad byte at offset 0).
    #[test]
    fn exact_block_lengths() {
        // SHA-256 of 64 and 128 'a' bytes (cross-checked against coreutils
        // sha256sum).
        let a64 = [b'a'; 64];
        assert_eq!(
            hex(&sha256(&a64)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
        let a128 = [b'a'; 128];
        assert_eq!(
            hex(&sha256(&a128)),
            "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"
        );
    }

    /// Tail lengths straddling the two-compress finalize boundary
    /// (55 = one-compress max, 56..=63 = two-compress) all agree with the
    /// streaming construction.
    #[test]
    fn finalize_padding_boundaries() {
        for len in 50..70usize {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 37 % 256) as u8).collect();
            // Reference: one-byte-at-a-time updates through the slow path.
            let mut slow = Sha256::new();
            for b in &data {
                slow.update(std::slice::from_ref(b));
            }
            assert_eq!(sha256(&data), slow.finalize(), "len {len}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"block-0"), sha256(b"block-1"));
    }

    /// `data`'s digest through the portable core alone, padded by hand.
    fn portable_digest(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The portable core is the path every other architecture runs and the
    /// reference the SHA-NI backend is held to, so it meets the NIST
    /// vectors by itself, whatever backend this CPU dispatches to.
    #[test]
    fn portable_core_meets_the_nist_vectors() {
        for (data, want) in [
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ] {
            assert_eq!(hex(&portable_digest(&data)), want, "{} bytes", data.len());
        }
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.below(256) as u8).collect()
    }

    /// Streaming in arbitrary chunkings equals one-shot hashing.
    #[test]
    fn chunked_equals_oneshot() {
        let mut rng = SimRng::seed_from_u64(0x7368_6101);
        for _ in 0..128 {
            let len = rng.below(2048);
            let data = random_bytes(&mut rng, len);
            let want = sha256(&data);
            let n_cuts = rng.below(8);
            let mut idx: Vec<usize> = (0..n_cuts).map(|_| rng.below(data.len() + 1)).collect();
            idx.sort_unstable();
            let mut h = Sha256::new();
            let mut prev = 0;
            for c in idx {
                h.update(&data[prev..c]);
                prev = c;
            }
            h.update(&data[prev..]);
            assert_eq!(h.finalize(), want);
        }
    }

    /// The portable unrolled core and the dispatched backend (SHA-NI where
    /// the CPU has it) compress identically: seeded multi-block runs agree
    /// state-for-state.
    #[test]
    fn portable_core_matches_dispatched_backend() {
        let mut rng = SimRng::seed_from_u64(0x7368_6103);
        for _ in 0..64 {
            let blocks = 1 + rng.below(8);
            let data = random_bytes(&mut rng, blocks * 64);
            let mut via_dispatch = super::H0;
            super::compress_many(&mut via_dispatch, &data);
            let mut via_portable = super::H0;
            let mut rest = data.as_slice();
            while rest.len() >= 64 {
                super::compress(&mut via_portable, rest);
                rest = &rest[64..];
            }
            assert_eq!(via_dispatch, via_portable);
        }
    }

    /// Flipping any byte changes the digest.
    #[test]
    fn avalanche() {
        let mut rng = SimRng::seed_from_u64(0x7368_6102);
        for _ in 0..128 {
            let len = 1 + rng.below(511);
            let data = random_bytes(&mut rng, len);
            let mut other = data.clone();
            let i = rng.below(data.len());
            other[i] ^= 0x01;
            assert_ne!(sha256(&data), sha256(&other));
        }
    }
}
