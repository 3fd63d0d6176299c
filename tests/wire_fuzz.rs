//! The decoder fuzz guard: seeded byte flips, truncations and insertions
//! applied to valid `Msg::DecisionRequest` frames. Whatever a peer sends,
//! decoding answers `Ok` or `Err` and never panics; what decodes
//! re-encodes to a frame that decodes to the same message; and the junk
//! names such frames carry add nothing to the process-wide name table.
//!
//! It is its own test binary so that no other test interns names while
//! it counts the table.

use dacs::federation::proto::Msg;
use dacs::policy::attr::{AttrName, AttrValue};
use dacs::policy::request::RequestContext;
use dacs::wire::codec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutated frames decoded per run.
const FRAMES: usize = 20_000;

/// The frames the mutations start from: short ids held in place, an id
/// past the in-place length, a multi-valued bag, and every value type.
fn seed_frames() -> Vec<Vec<u8>> {
    let requests = [
        RequestContext::basic("alice@a", "ehr/1", "read"),
        RequestContext::basic("user-1234@q", "records/7", "read")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("role", "researcher"),
        RequestContext::basic("an-identifier-longer-than-in-place@x", "é日€𝄞", "write")
            .with_resource_attr("sensitivity", 3i64)
            .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000))
            .with_subject_attr("x", 1.5f64)
            .with_subject_attr("y", true),
    ];
    requests
        .into_iter()
        .map(|request| codec::to_bytes(&Msg::DecisionRequest { request }).unwrap())
        .collect()
}

/// One to three mutations of `frame`: a flipped byte, a truncation, or
/// one to four inserted bytes.
fn mutate(rng: &mut StdRng, frame: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..3) {
            0 if !out.is_empty() => {
                let at = rng.gen_range(0..out.len());
                out[at] ^= rng.gen_range(1..=255u8);
            }
            1 => {
                let keep = rng.gen_range(0..=out.len());
                out.truncate(keep);
            }
            _ => {
                let at = rng.gen_range(0..=out.len());
                for _ in 0..rng.gen_range(1..=4) {
                    out.insert(at, rng.gen::<u8>());
                }
            }
        }
    }
    out
}

#[test]
fn mutated_decision_request_frames_decode_or_err_and_never_panic() {
    let seeds = seed_frames();
    let names = AttrName::interned();
    let mut rng = StdRng::seed_from_u64(44);
    let (mut decoded, mut refused) = (0, 0);
    for _ in 0..FRAMES {
        let seed = &seeds[rng.gen_range(0..seeds.len())];
        let frame = mutate(&mut rng, seed);
        match codec::from_bytes::<Msg>(&frame) {
            Ok(msg) => {
                decoded += 1;
                let again = codec::to_bytes(&msg).expect("a decoded message encodes");
                let back: Msg = codec::from_bytes(&again).expect("its frame decodes");
                assert_eq!(back, msg, "frame {frame:02x?}");
            }
            Err(_) => refused += 1,
        }
    }
    assert_eq!(decoded + refused, FRAMES);
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
    assert_eq!(AttrName::interned(), names, "a frame interned a name");
}
