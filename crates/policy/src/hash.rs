//! The workspace's one hash function: a word-at-a-time folded multiply.
//!
//! Request keys ([`RequestContext::canonical_hash`]), the stripes and
//! buckets of the decision caches and the points of the shard ring are
//! all this function. It reads its input eight bytes per multiply: each
//! word is XORed into a 64-bit accumulator, which is replaced by the
//! [`fold`] of itself and a fixed odd constant — the 128-bit product with
//! its two halves XORed, so a changed input bit reaches both ends of the
//! word. [`WordHasher::finish`] ends with an avalanche, so every output
//! bit depends on every input bit and a caller may take any slice of
//! the result: a cache stripe is its top bits, a ring point all of it.
//!
//! It is not a cryptographic hash, and 64 bits cannot rule out a
//! collision anyway: every cache keyed by it compares the full request
//! on a hit. Where keys an outsider influences pick the bucket chain of
//! a map, the map folds them under a seed of its own ([`KeyState`]).
//!
//! [`RequestContext::canonical_hash`]: crate::request::RequestContext::canonical_hash

use std::hash::{BuildHasher, Hasher, RandomState};

/// The accumulator's starting value (the first fractional digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The multiplier of every word (the golden ratio's fractional digits).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The folded multiply: the full 128-bit product of `a` and `b`, its
/// high half XORed into its low half.
#[inline]
pub const fn fold(a: u64, b: u64) -> u64 {
    let full = (a as u128) * (b as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The little-endian word of at most eight bytes, zero-padded, read
/// without a per-byte loop: two overlapping loads of four bytes when
/// there are four or more, three single bytes (some of them the same)
/// when fewer.
#[inline]
fn padded_word(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    match n {
        8 => u64::from_le_bytes(bytes.try_into().expect("eight bytes")),
        4..=7 => {
            let lo = u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"));
            let hi = u32::from_le_bytes(bytes[n - 4..].try_into().expect("four bytes"));
            // The loads overlap on equal bytes, so OR-ing them is exact.
            u64::from(lo) | u64::from(hi) << (8 * (n - 4))
        }
        1..=3 => {
            u64::from(bytes[0])
                | u64::from(bytes[n / 2]) << (8 * (n / 2))
                | u64::from(bytes[n - 1]) << (8 * (n - 1))
        }
        _ => 0,
    }
}

/// A deterministic stream hasher: the same words give the same value in
/// every process, which is what cache keys shared between PEPs and ring
/// points shared between routers need.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl WordHasher {
    /// A hasher that has read nothing.
    pub const fn new() -> Self {
        WordHasher(SEED)
    }

    /// Feeds one word: one multiply.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word, MUL);
    }

    /// Feeds `bytes` eight at a time, the last word zero-padded. Where
    /// the bytes end is not part of the stream: a caller that feeds more
    /// than one byte string, or one that may end in zero bytes, feeds
    /// its length too.
    #[inline]
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_joined(&[bytes]);
    }

    /// Feeds the concatenation of `parts`, carrying a partial word from
    /// one part into the next: the same words `WordHasher::write_bytes`
    /// feeds for the bytes spelled out in one slice.
    #[inline]
    pub fn write_joined(&mut self, parts: &[&[u8]]) {
        // Bytes of the next word read so far, and how many.
        let (mut carry, mut filled) = (0u64, 0usize);
        for part in parts {
            let mut rest: &[u8] = part;
            if filled > 0 {
                let take = rest.len().min(8 - filled);
                carry |= padded_word(&rest[..take]) << (8 * filled);
                filled += take;
                rest = &rest[take..];
                if filled < 8 {
                    continue;
                }
                self.write_u64(carry);
            }
            let mut words = rest.chunks_exact(8);
            for word in &mut words {
                self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            }
            carry = padded_word(words.remainder());
            filled = words.remainder().len();
        }
        if filled > 0 {
            self.write_u64(carry);
        }
    }

    /// The hash of everything fed: the accumulator through SplitMix64's
    /// finalizer, which spreads every bit of it over the whole word.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the hasher of a map whose keys are finished hashes: one
/// [`fold`] of the key under a seed drawn when the `KeyState` is made.
/// The key is already well mixed, so one multiply places it; the seed
/// makes which keys share a bucket chain differ from map to map, so
/// request content cannot aim a run of keys at one chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyState(u64);

impl KeyState {
    /// A builder with a fresh random seed.
    pub fn new() -> Self {
        // Finishing an empty hasher of std's randomly keyed state yields
        // a random word; it is drawn once, here, and never per key.
        KeyState(RandomState::new().build_hasher().finish())
    }
}

impl Default for KeyState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            seed: self.0,
            hash: 0,
        }
    }
}

/// The hasher a [`KeyState`] builds: each word it is fed is folded into
/// its state under the map's seed, so a `u64` key hashes to
/// `fold(key, seed)`.
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher {
    seed: u64,
    hash: u64,
}

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.hash = fold(self.hash ^ word, self.seed);
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            self.write_u64(padded_word(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_word_is_the_zero_padded_little_endian_word() {
        let bytes = *b"abcdefgh";
        for n in 0..=8 {
            let mut buf = [0u8; 8];
            buf[..n].copy_from_slice(&bytes[..n]);
            assert_eq!(
                padded_word(&bytes[..n]),
                u64::from_le_bytes(buf),
                "{n} bytes"
            );
        }
    }

    /// However a byte string is cut into parts, it is one stream.
    #[test]
    fn joined_parts_hash_as_the_spelled_out_bytes() {
        let text = b"user-1234@mega\x1frecords/1234/and-a-longer-tail";
        let whole = {
            let mut h = WordHasher::new();
            h.write_bytes(text);
            h.finish()
        };
        for a in 0..=text.len() {
            for b in a..=text.len() {
                let mut h = WordHasher::new();
                h.write_joined(&[&text[..a], &text[a..b], &text[b..]]);
                assert_eq!(h.finish(), whole, "cut at {a} and {b}");
            }
        }
    }

    #[test]
    fn a_map_state_folds_a_key_under_its_seed() {
        let state = KeyState::new();
        assert_ne!(state, KeyState::new(), "each state draws its own seed");
        assert_eq!(state.hash_one(7u64), fold(7, state.0));
    }
}
