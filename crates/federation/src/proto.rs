//! The authorization protocol message set exchanged between components
//! of the multi-domain architecture, with size accounting under both
//! the compact (binary) and verbose (XML-like) encodings.

use dacs_assert::SignedAssertion;
use dacs_policy::policy::{Decision, Obligation};
use dacs_policy::request::RequestContext;
use serde::{Deserialize, Serialize};

/// A protocol message body (carried in a `dacs_wire::Envelope` over the
/// simulated network).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Msg {
    /// Client → PEP: invoke the protected service.
    ServiceRequest {
        /// The access request context.
        request: RequestContext,
        /// Capability presented in the push model.
        capability: Option<SignedAssertion>,
    },
    /// PEP → client: outcome.
    ServiceResponse {
        /// Whether the service call was allowed and performed.
        allowed: bool,
    },
    /// PEP → PDP: authorization decision query (Fig. 3/4 step II).
    DecisionRequest {
        /// The request context under evaluation.
        request: RequestContext,
    },
    /// PDP → PEP: authorization decision response (step III).
    DecisionResponse {
        /// The decision.
        decision: Decision,
        /// Obligations the PEP must fulfil.
        obligations: Vec<Obligation>,
    },
    /// PDP → remote IdP/PIP: fetch subject attributes for a federated
    /// subject.
    AttributeQuery {
        /// The subject whose attributes are needed.
        subject: String,
        /// Attribute names requested.
        names: Vec<String>,
    },
    /// IdP/PIP → PDP: attribute response (attributes packed as a
    /// request-context fragment).
    AttributeResponse {
        /// The attribute bags.
        attributes: RequestContext,
    },
    /// Client → capability service: request a capability (Fig. 2
    /// step I).
    CapabilityRequest {
        /// The requesting subject.
        subject: String,
        /// Desired resource scope (glob).
        resource_pattern: String,
        /// Desired actions.
        actions: Vec<String>,
        /// The domain the capability must be accepted by.
        audience: String,
    },
    /// Capability service → client: the capability, if pre-screening
    /// permitted it (step II).
    CapabilityResponse {
        /// The issued capability (None = refused).
        capability: Option<SignedAssertion>,
    },
}

/// Which encoding size model a flow is accounted under (§3.2: XML
/// verbosity matters; experiment E7 quantifies it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizeModel {
    /// Compact binary codec (functional format).
    Compact,
    /// XML-like verbose rendering.
    Verbose,
}

impl Msg {
    /// The size in bytes this message occupies under `model`.
    pub fn size(&self, model: SizeModel) -> usize {
        match model {
            SizeModel::Compact => dacs_wire::codec::to_bytes(self)
                .map(|b| b.len())
                .unwrap_or(0),
            SizeModel::Verbose => dacs_wire::xmlish::encoded_len(self).unwrap_or(0),
        }
    }

    /// Short message-kind name for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::ServiceRequest { .. } => "service-request",
            Msg::ServiceResponse { .. } => "service-response",
            Msg::DecisionRequest { .. } => "decision-request",
            Msg::DecisionResponse { .. } => "decision-response",
            Msg::AttributeQuery { .. } => "attribute-query",
            Msg::AttributeResponse { .. } => "attribute-response",
            Msg::CapabilityRequest { .. } => "capability-request",
            Msg::CapabilityResponse { .. } => "capability-response",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_positive_and_verbose_larger() {
        let m = Msg::DecisionRequest {
            request: RequestContext::basic("alice@a", "ehr/1", "read"),
        };
        let c = m.size(SizeModel::Compact);
        let v = m.size(SizeModel::Verbose);
        assert!(c > 0);
        assert!(v > 2 * c, "verbose {v} vs compact {c}");
    }

    /// The request context keeps its map shape on the wire whatever it
    /// is stored as: these are the frames the B-tree layout emitted, so
    /// the message-size columns of the experiment tables do not move.
    #[test]
    fn decision_request_frames_are_pinned() {
        use dacs_policy::attr::AttrValue;
        let ids = || RequestContext::basic("alice@a", "ehr/1", "read");
        let pinned = [
            (
                ids(),
                "020000000300000000000000020000006964010000000000000007000000616c69636540610100\
                 00000200000069640100000000000000050000006568722f310200000002000000696401000000\
                 000000000400000072656164",
                824,
            ),
            (
                ids()
                    .with_subject_attr("role", "doctor")
                    .with_subject_attr("role", "researcher"),
                "020000000400000000000000020000006964010000000000000007000000616c69636540610000\
                 000004000000726f6c65020000000000000006000000646f63746f72000000000a000000726573\
                 65617263686572010000000200000069640100000000000000050000006568722f310200000002\
                 000000696401000000000000000400000072656164",
                1140,
            ),
            (
                ids()
                    .with_resource_attr("sensitivity", 3i64)
                    .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000)),
                "020000000500000000000000020000006964010000000000000007000000616c69636540610100\
                 00000200000069640100000000000000050000006568722f31010000000b00000073656e736974\
                 69766974790100000001000000030000000000000002000000020000006964010000000000000004\
                 00000072656164030000000c00000063757272656e742d74696d6501000000040000008062ee01\
                 00000000",
                1319,
            ),
        ];
        for (request, frame, verbose) in pinned {
            let m = Msg::DecisionRequest { request };
            let bytes = dacs_wire::codec::to_bytes(&m).unwrap();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, frame);
            assert_eq!(m.size(SizeModel::Verbose), verbose);
            assert_eq!(dacs_wire::codec::from_bytes::<Msg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn codec_roundtrip() {
        let m = Msg::DecisionResponse {
            decision: Decision::Permit,
            obligations: vec![],
        };
        let bytes = dacs_wire::codec::to_bytes(&m).unwrap();
        let back: Msg = dacs_wire::codec::from_bytes(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            Msg::ServiceResponse { allowed: true }.kind(),
            "service-response"
        );
        assert_eq!(
            Msg::AttributeQuery {
                subject: "s".into(),
                names: vec![]
            }
            .kind(),
            "attribute-query"
        );
    }
}
