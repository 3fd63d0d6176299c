//! ChaCha20 stream cipher (RFC 8439) implemented from scratch.
//!
//! Stands in for the transport/message-level confidentiality the paper
//! obtains from SSL/TLS and XML-Encryption: envelopes in `dacs-wire` can
//! be encrypted with a symmetric session key negotiated out of band.
//!
//! ChaCha20 is symmetric: [`apply_keystream`] both encrypts and decrypts.
//!
//! # Examples
//!
//! ```
//! use dacs_crypto::chacha20::apply_keystream;
//!
//! let key = [7u8; 32];
//! let nonce = [1u8; 12];
//! let mut data = b"confidential policy".to_vec();
//! apply_keystream(&key, &nonce, 1, &mut data);
//! assert_ne!(&data, b"confidential policy");
//! apply_keystream(&key, &nonce, 1, &mut data);
//! assert_eq!(&data, b"confidential policy");
//! ```

/// ChaCha20 key size in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// ChaCha20 nonce size in bytes (IETF variant).
pub(crate) const NONCE_LEN: usize = 12;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);

    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);

    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);

    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

fn initial_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u32; 16] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block.
pub fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 64] {
    let initial = initial_state(key, nonce, counter);
    let mut state = initial;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs the ChaCha20 keystream into `data` in place.
///
/// Encryption and decryption are the same operation. `counter` is the
/// initial block counter (RFC 8439 uses 1 for payload data).
///
/// # Panics
///
/// Panics if the message is long enough to overflow the 32-bit block
/// counter (more than ~256 GiB), which cannot occur for protocol
/// messages in this system.
pub fn apply_keystream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(64) {
        let ks = block(key, nonce, ctr);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.checked_add(1).expect("chacha20 block counter overflow");
    }
}

/// Derives a fresh ChaCha20 key from a shared secret and a context label
/// using HMAC-SHA-256 as a KDF.
pub fn derive_key(shared_secret: &[u8], label: &str) -> [u8; KEY_LEN] {
    crate::hmac::hmac_sha256(shared_secret, label.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 8439 section 2.1.1 quarter round test vector.
    #[test]
    fn quarter_round_vector() {
        let mut state = [0u32; 16];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    // RFC 8439 section 2.3.2 block function test vector.
    #[test]
    fn block_function_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let ks = block(&key, &nonce, 1);
        assert_eq!(
            hex::encode(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 section 2.4.2 encryption test vector.
    #[test]
    fn encryption_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        apply_keystream(&key, &nonce, 1, &mut data);
        assert_eq!(hex::encode(&data[..16]), "6e2e359a2568f98041ba0728dd0d6981");
        // Round-trips.
        apply_keystream(&key, &nonce, 1, &mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn different_nonce_different_keystream() {
        let key = [3u8; 32];
        let ks1 = block(&key, &[0u8; 12], 0);
        let ks2 = block(&key, &[1u8; 12], 0);
        assert_ne!(ks1, ks2);
    }

    #[test]
    fn empty_message_is_noop() {
        let mut data: Vec<u8> = vec![];
        apply_keystream(&[0u8; 32], &[0u8; 12], 0, &mut data);
        assert!(data.is_empty());
    }

    #[test]
    fn derive_key_is_label_sensitive() {
        let k1 = derive_key(b"secret", "pep->pdp");
        let k2 = derive_key(b"secret", "pdp->pep");
        assert_ne!(k1, k2);
    }
}
