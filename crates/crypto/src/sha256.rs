//! SHA-256 implemented from scratch (FIPS 180-4).
//!
//! This is the root primitive of the whole crypto substrate: HMAC, the
//! ChaCha20 key schedule helpers, the Winternitz one-time signatures and
//! the Merkle many-time signature scheme are all built on top of it.
//!
//! # Examples
//!
//! ```
//! use dacs_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     dacs_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

/// Output size of SHA-256 in bytes.
pub(crate) const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (used by HMAC).
pub(crate) const BLOCK_LEN: usize = 64;

/// A SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

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

/// Incremental SHA-256 hasher.
///
/// Accepts input via [`Sha256::update`] and produces the digest with
/// [`Sha256::finalize`]. For one-shot hashing use [`Sha256::digest`].
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hash the concatenation of two byte strings.
    ///
    /// Used pervasively for domain-separated hashing such as Merkle tree
    /// node derivation: `digest_pair(left, right)`.
    pub(crate) fn digest_pair(a: &[u8], b: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(a);
        h.update(b);
        h.finalize()
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie.
        let mut blocks = input.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("exact chunk"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Consumes the hasher and returns the final digest.
    pub fn finalize(mut self) -> Digest {
        // 0x80, zeros up to the last 8 bytes of a block (the next one
        // when fewer are free), then the big-endian bit length.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The SHA-256 compression function: absorbs one block into `state`,
/// on the CPU's SHA extensions where it has them.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `compress_shani` needs sha, sse2, ssse3 and sse4.1.
        // sse2 is in the x86_64 baseline and the run-time checks above
        // found the other three on this CPU. The function takes only
        // references and touches memory through safe code.
        #[allow(unsafe_code)]
        unsafe {
            compress_shani(state, block)
        };
        return;
    }
    compress_soft(state, block);
}

/// [`compress`] on the SHA extensions: `sha256rnds2` runs two rounds,
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time. The state is held as the two vectors the round instruction
/// takes, `(a, b, e, f)` and `(c, d, g, h)`, highest lane first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_shani(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    use std::arch::x86_64::*;

    let word = |i: usize| {
        let bytes = block[i * 4..i * 4 + 4].try_into().expect("four bytes");
        u32::from_be_bytes(bytes) as i32
    };
    let quad = |i: usize| {
        _mm_set_epi32(
            word(4 * i + 3),
            word(4 * i + 2),
            word(4 * i + 1),
            word(4 * i),
        )
    };
    let mut w = [quad(0), quad(1), quad(2), quad(3)];
    let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    let (abef_in, cdgh_in) = (abef, cdgh);

    for i in 0..16 {
        // `w` holds message words 4i..4i+15, four to a vector, word 4i
        // in the lowest lane.
        let [w0, w1, w2, w3] = w;
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w0, k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        let next = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
            w3,
        );
        w = [w1, w2, w3, next];
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
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
    .map(|x| x as u32);
}

/// The scalar compression function: the fallback on CPUs without SHA
/// extensions and the oracle the tests hold the fast path to.
fn compress_soft(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
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
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    type Compress = fn(&mut [u32; 8], &[u8; BLOCK_LEN]);

    /// `data` padded as FIPS 180-4 words it, every block absorbed by the
    /// given `compress`, whichever path the host's own would take.
    fn digest_with(compress: Compress, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress(&mut state, block.try_into().expect("exact chunk"));
        }
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// RFC 2104 over [`digest_with`].
    fn hmac_with(compress: Compress, key: &[u8], message: &[u8]) -> Digest {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&digest_with(compress, key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let padded = |pad: u8, tail: &[u8]| {
            let mut out: Vec<u8> = key_block.iter().map(|b| b ^ pad).collect();
            out.extend_from_slice(tail);
            out
        };
        let inner = digest_with(compress, &padded(0x36, message));
        digest_with(compress, &padded(0x5c, &inner))
    }

    /// `data`'s digest in hex, once the hasher (on the dispatching
    /// `compress`) and the scalar path agree on it.
    fn hash_hex(data: &[u8]) -> String {
        let digest = Sha256::digest(data);
        assert_eq!(digest_with(compress_soft, data), digest, "scalar path");
        hex::encode(&digest)
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // NIST FIPS 180-4 example: 448-bit message.
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hash_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    const SPLITS: [usize; 9] = [0, 1, 17, 63, 64, 65, 500, 999, 1000];

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in SPLITS {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    /// The padding as FIPS 180-4 words it, one byte per `update`: the
    /// reference `finalize`'s one-step padding is compared against.
    fn finalize_bytewise(mut h: Sha256) -> Digest {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffer_len != 56 {
            h.update(&[0x00]);
        }
        h.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut h.state, &h.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_step_padding_matches_the_bytewise_reference() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Every length across three block boundaries, including the
        // 55/56 and 119/120 spill points.
        for len in 0..=200 {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.clone().finalize(), finalize_bytewise(h), "length {len}");
        }
        for split in SPLITS {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(
                h.clone().finalize(),
                finalize_bytewise(h),
                "split at {split}"
            );
        }
    }

    #[test]
    fn every_length_digests_alike_through_both_paths() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 % 251) as u8).collect();
        for len in 0..=200 {
            assert_eq!(
                Sha256::digest(&data[..len]),
                digest_with(compress_soft, &data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn rfc4231_tags_through_both_paths() {
        for (key, data, tag) in crate::hmac::RFC4231 {
            assert_eq!(hex::encode(&crate::hmac::hmac_sha256(key, data)), tag);
            assert_eq!(hex::encode(&hmac_with(compress_soft, key, data)), tag);
        }
    }

    /// `compress` against `compress_soft` on random states and blocks:
    /// on a CPU with SHA extensions this holds the fast path to the
    /// scalar one.
    #[test]
    fn compress_matches_the_scalar_path_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(256);
        for case in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let mut block = [0u8; BLOCK_LEN];
            rng.fill_bytes(&mut block);
            let (mut fast, mut soft) = (state, state);
            compress(&mut fast, &block);
            compress_soft(&mut soft, &block);
            assert_eq!(fast, soft, "case {case}");
        }
    }

    #[test]
    fn digest_pair_is_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(Sha256::digest_pair(a, b), Sha256::digest(b"hello world"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // A smoke test that the compression function reacts to every byte
        // position within a block.
        let mut digests = std::collections::HashSet::new();
        for i in 0..64 {
            let mut block = [0u8; 64];
            block[i] = 1;
            assert!(digests.insert(Sha256::digest(&block)));
        }
        assert_eq!(digests.len(), 64);
    }
}
