//! Message envelopes: the SOAP-style wrapper every protocol message
//! travels in, with routing headers and correlation ids.

use serde::{Deserialize, Serialize};

/// A routed protocol message wrapping a body of type `B`.
///
/// `B` is the protocol payload enum defined by higher layers
/// (`dacs-federation::proto`). Envelopes are encoded with
/// [`crate::codec`] for transport and can be wrapped by
/// [`crate::security`] for integrity/confidentiality.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Envelope<B> {
    /// Sender component address, e.g. `"pep.hospital-a"`.
    pub from: String,
    /// Recipient component address, e.g. `"pdp.hospital-a"`.
    pub to: String,
    /// Sender-unique message id.
    pub msg_id: u64,
    /// For responses: the `msg_id` of the request being answered.
    pub correlation: Option<u64>,
    /// The protocol payload.
    pub body: B,
}

impl<B> Envelope<B> {
    /// Creates a request envelope.
    pub fn request(from: impl Into<String>, to: impl Into<String>, msg_id: u64, body: B) -> Self {
        Envelope {
            from: from.into(),
            to: to.into(),
            msg_id,
            correlation: None,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrip() {
        let env = Envelope::request("a", "b", 7, vec![1u8, 2, 3]);
        let bytes = crate::codec::to_bytes(&env).unwrap();
        let back: Envelope<Vec<u8>> = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(env, back);
    }
}
