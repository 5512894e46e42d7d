//! SHA-256 (FIPS 180-4), implemented from scratch for the RoT model.
//!
//! Every block compression goes through one function,
//! [`compress_blocks`]. On an x86-64 CPU that reports the SHA
//! extensions it runs a SHA-NI kernel; everywhere else it runs the
//! portable compression, which is also the reference the tests hold the
//! kernel to. Run-time CPU feature detection is the only thing that
//! chooses between them.

use std::cell::Cell;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const BLOCK_LEN: usize = 64;

/// One 64-byte message block.
type Block = [u8; BLOCK_LEN];

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    /// Keeps this thread on the portable compressor, so that tests can
    /// run the same vectors through both. It can only turn SHA-NI off.
    static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// SHA-256 block compressions run on the calling thread so far.
///
/// Every 64-byte block counts once, whichever compressor ran it, so the
/// count depends only on what was hashed: [`sha256`] of `n` bytes costs
/// ⌈(n + 9) / 64⌉ blocks, and `hmac_sha256` with a key of at most 64
/// bytes costs three more. Price a call by the difference of two
/// readings on one thread.
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// Names the compressor this process runs: `"sha-ni"` on an x86-64 CPU
/// with the SHA extensions, `"portable"` everywhere else. Print it next
/// to a timing, so that a number from a host without the extensions
/// reads as a different host rather than as a regression.
pub fn sha256_backend() -> &'static str {
    if sha_ni_enabled() {
        "sha-ni"
    } else {
        "portable"
    }
}

fn sha_ni_enabled() -> bool {
    #[cfg(test)]
    if PORTABLE_ONLY.with(Cell::get) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        sha_ni::detected()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses `blocks` into `state`, in order: the only way any hash in
/// this crate reaches a compression function.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[Block]) {
    if blocks.is_empty() {
        return;
    }
    COMPRESSIONS.with(|c| c.set(c.get() + blocks.len() as u64));
    #[cfg(target_arch = "x86_64")]
    if sha_ni_enabled() {
        // SAFETY: `sha_ni_enabled` is true only when `sha_ni::detected`
        // is, that is when the CPU reports every feature that
        // `sha_ni::compress` is compiled for.
        unsafe { sha_ni::compress(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The portable compression, word for word FIPS 180-4 §6.2.2: the only
/// path on CPUs without the SHA extensions and the reference for the
/// kernel everywhere.
fn compress_portable(state: &mut [u32; 8], blocks: &[Block]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-NI kernel. `sha256rnds2` runs two rounds on the state
/// held as two vectors, ABEF and CDGH (highest lane first), and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::*;

    use super::{Block, K};

    /// Whether the CPU reports every feature [`compress`] is compiled
    /// for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Same contract as `compress_portable`. Calling it from code not
    /// compiled for these features takes `unsafe`: the caller must have
    /// seen [`detected`] return true.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[Block]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (quads, _) = block.as_chunks::<16>();
            let mut w0 = message_words(&quads[0]);
            let mut w1 = message_words(&quads[1]);
            let mut w2 = message_words(&quads[2]);
            let mut w3 = message_words(&quads[3]);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for group in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }

    /// Four big-endian message words, the first in lane 0.
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn message_words(bytes: &[u8; 16]) -> __m128i {
        let le = u128::from_le_bytes(*bytes);
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x((le >> 64) as i64, le as i64), bswap)
    }

    /// Rounds `4 * group .. 4 * group + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = K.as_chunks::<4>().0[group].map(|word| word as i32);
        let wk = _mm_add_epi32(w, _mm_set_epi32(k[3], k[2], k[1], k[0]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0b00_00_11_10>(wk));
    }

    /// The next four schedule words from the previous sixteen, oldest
    /// first: `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use rap_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(d: &[u8]) -> String {
///     d.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: Block,
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        compress_blocks(&mut self.state, blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(self) -> Digest {
        // The padding (0x80, zeros, the 64-bit big-endian bit length)
        // ends on a block boundary: one block when the length still fits
        // behind the buffered bytes and the 0x80, two otherwise.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let end = if self.buffered < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress_blocks(&mut state, tail[..end].as_chunks().0);
        digest_bytes(&state)
    }
}

fn digest_bytes(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot convenience wrapper around [`Sha256`].
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Runs `check` once per compressor this CPU has, portable first,
/// naming the one in use; the SHA-NI leg prints a skip note on a CPU
/// without the extensions.
#[cfg(test)]
pub(crate) fn for_each_compressor(mut check: impl FnMut(&'static str)) {
    PORTABLE_ONLY.with(|p| p.set(true));
    check("portable");
    PORTABLE_ONLY.with(|p| p.set(false));
    if sha_ni_enabled() {
        check("sha-ni");
    } else {
        eprintln!("note: this CPU lacks the SHA extensions; sha-ni leg skipped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// xorshift64: deterministic test bytes without a dependency.
    fn next(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// Pads by the textbook rule into a fresh buffer and runs only the
    /// portable compression: independent of `update`'s buffering and
    /// `finalize`'s one-shot tail.
    fn reference_sha256(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, msg.as_chunks().0);
        digest_bytes(&state)
    }

    /// Asserts `sha256(msg)` under every compressor.
    fn assert_digest(msg: &[u8], want: &str) {
        for_each_compressor(|backend| {
            assert_eq!(sha256_backend(), backend);
            assert_eq!(hex(&sha256(msg)), want, "{backend}");
        });
    }

    // NIST FIPS 180-4 / classic test vectors.
    #[test]
    fn empty_string() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        for_each_compressor(|backend| {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.update(&[b'a'; 1000]);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{backend}"
            );
        });
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for_each_compressor(|backend| {
            for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), sha256(&data), "{backend}: split at {split}");
            }
        });
    }

    #[test]
    fn every_length_and_split_matches_the_reference() {
        let mut seed = 0x5eed_0256;
        let data: Vec<u8> = (0..256).map(|_| next(&mut seed) as u8).collect();
        for_each_compressor(|backend| {
            for len in 0..=data.len() {
                let msg = &data[..len];
                let oneshot = sha256(msg);
                assert_eq!(oneshot, reference_sha256(msg), "{backend}: len {len}");
                for split in 0..=len {
                    let mut h = Sha256::new();
                    h.update(&msg[..split]);
                    h.update(&msg[split..]);
                    assert_eq!(h.finalize(), oneshot, "{backend}: len {len} split {split}");
                }
            }
        });
    }

    #[test]
    fn compress_blocks_matches_portable_on_random_inputs() {
        let mut seed = 0xc0ff_ee00_0000_0001;
        for n in 0..=64usize {
            let bytes: Vec<u8> = (0..n * BLOCK_LEN).map(|_| next(&mut seed) as u8).collect();
            let start: [u32; 8] = std::array::from_fn(|_| next(&mut seed) as u32);
            let (mut dispatched, mut portable) = (start, start);
            compress_blocks(&mut dispatched, bytes.as_chunks().0);
            compress_portable(&mut portable, bytes.as_chunks().0);
            assert_eq!(dispatched, portable, "{} with {n} blocks", sha256_backend());
        }
    }

    #[test]
    fn compressions_follow_the_padding_rule() {
        for_each_compressor(|backend| {
            for len in 0..=200usize {
                let data = vec![0x3c; len];
                let blocks = (len as u64 + 9).div_ceil(64);
                let before = compressions();
                sha256(&data);
                assert_eq!(
                    compressions() - before,
                    blocks,
                    "{backend}: sha256 len {len}"
                );
                for key_len in [0, 20, 64] {
                    let before = compressions();
                    crate::hmac_sha256(&vec![0x0b; key_len], &data);
                    assert_eq!(
                        compressions() - before,
                        3 + blocks,
                        "{backend}: hmac key {key_len} len {len}"
                    );
                }
            }
        });
    }

    #[test]
    fn length_boundaries() {
        // Hash all lengths around the padding boundary against a
        // self-consistency rule: distinct inputs yield distinct digests.
        let mut digests = std::collections::HashSet::new();
        for len in 0..130usize {
            let data = vec![0xAB; len];
            assert!(digests.insert(sha256(&data)), "collision at len {len}");
        }
    }
}
