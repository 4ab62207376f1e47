//! Per-vertex commitment records for graph navigation (§3.7).
//!
//! "We can enable this by choosing I(x) to be
//! (c(x^p_1, …, x^p_a), c(x^s_1, …, x^s_b), c(x̄)), where the c(·) are
//! commitments and the x^p and x^s are bitstrings identifying
//! predecessor and successor vertices, respectively. x̄ is the route
//! itself (in the case of a variable) or the operator type and the
//! evidence (in the case of an operator). Thus, the three types of
//! information can be revealed independently, depending on the
//! authorization of the querying neighbor."

use pvr_bgp::Route;
use pvr_crypto::commit::{commit, verify as verify_commitment, Commitment, Opening};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::encoding::{decode_exact, Wire, WireError};
use pvr_mht::Label;
use pvr_rfg::OperatorKind;

/// Commitment domain-separation tags for the three record fields.
const TAG_PREDS: &[u8] = b"pvr.vertex.preds";
const TAG_SUCCS: &[u8] = b"pvr.vertex.succs";
const TAG_CONTENT: &[u8] = b"pvr.vertex.content";

/// The content field x̄ of a vertex.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VertexContent {
    /// A variable's current value (a set of routes).
    Variable {
        /// The routes held by the variable.
        routes: Vec<Route>,
    },
    /// An operator's function.
    Operator {
        /// The operator type.
        kind: OperatorKind,
    },
}

pvr_crypto::wire_enum!(VertexContent { 0 => Variable { routes }, 1 => Operator { kind } });

/// The public record I(x) stored in the MHT leaf for a vertex: three
/// independently-openable commitments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VertexRecord {
    /// Commitment to the predecessor label list.
    pub preds: Commitment,
    /// Commitment to the successor label list.
    pub succs: Commitment,
    /// Commitment to the content x̄.
    pub content: Commitment,
}

pvr_crypto::wire_struct!(VertexRecord { preds, succs, content });

/// The private openings the committing network retains for a vertex.
#[derive(Clone, Debug)]
pub struct VertexOpenings {
    /// Opens [`VertexRecord::preds`] to the encoded predecessor labels.
    pub preds: Opening,
    /// Opens [`VertexRecord::succs`] to the encoded successor labels.
    pub succs: Opening,
    /// Opens [`VertexRecord::content`] to the encoded [`VertexContent`].
    pub content: Opening,
}

/// Canonical encoding of a label list (the x^p / x^s bitstrings).
pub fn encode_labels(labels: &[Label]) -> Vec<u8> {
    let mut buf = Vec::new();
    Label::encode_slice(labels, &mut buf);
    buf
}

/// Decodes a label list from an opened preds/succs value.
pub fn decode_labels(bytes: &[u8]) -> Result<Vec<Label>, WireError> {
    decode_exact(bytes)
}

/// Builds the record + openings for a vertex.
pub fn make_record(
    preds: &[Label],
    succs: &[Label],
    content: &VertexContent,
    rng: &mut HmacDrbg,
) -> (VertexRecord, VertexOpenings) {
    let (c_preds, o_preds) = commit(TAG_PREDS, &encode_labels(preds), rng);
    let (c_succs, o_succs) = commit(TAG_SUCCS, &encode_labels(succs), rng);
    let (c_content, o_content) = commit(TAG_CONTENT, &content.to_wire(), rng);
    (
        VertexRecord { preds: c_preds, succs: c_succs, content: c_content },
        VertexOpenings { preds: o_preds, succs: o_succs, content: o_content },
    )
}

/// Verifies an opened predecessor list against a record.
pub fn verify_preds(record: &VertexRecord, opening: &Opening) -> Option<Vec<Label>> {
    if !verify_commitment(TAG_PREDS, &record.preds, opening) {
        return None;
    }
    decode_labels(&opening.value).ok()
}

/// Verifies an opened successor list against a record.
pub fn verify_succs(record: &VertexRecord, opening: &Opening) -> Option<Vec<Label>> {
    if !verify_commitment(TAG_SUCCS, &record.succs, opening) {
        return None;
    }
    decode_labels(&opening.value).ok()
}

/// Verifies opened content against a record.
pub fn verify_content(record: &VertexRecord, opening: &Opening) -> Option<VertexContent> {
    if !verify_commitment(TAG_CONTENT, &record.content, opening) {
        return None;
    }
    pvr_crypto::decode_exact(&opening.value).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_bgp::{AsPath, Asn, Prefix};

    fn rng() -> HmacDrbg {
        HmacDrbg::new(b"record tests")
    }

    fn sample_route() -> Route {
        let mut r = Route::originate(Prefix::parse("10.0.0.0/8").unwrap());
        r.path = AsPath::from_slice(&[Asn(1), Asn(2)]);
        r
    }

    #[test]
    fn record_round_trip_all_fields() {
        let mut rng = rng();
        let preds = vec![Label::Var(1), Label::Var(2)];
        let succs = vec![Label::Var(9)];
        let content = VertexContent::Operator { kind: OperatorKind::MinPathLen };
        let (rec, open) = make_record(&preds, &succs, &content, &mut rng);
        assert_eq!(verify_preds(&rec, &open.preds), Some(preds));
        assert_eq!(verify_succs(&rec, &open.succs), Some(succs));
        assert_eq!(verify_content(&rec, &open.content), Some(content));
    }

    #[test]
    fn variable_content_round_trip() {
        let mut rng = rng();
        let content = VertexContent::Variable { routes: vec![sample_route()] };
        let (rec, open) = make_record(&[], &[Label::Rule(0)], &content, &mut rng);
        assert_eq!(verify_content(&rec, &open.content), Some(content));
        assert_eq!(verify_preds(&rec, &open.preds), Some(vec![]));
    }

    #[test]
    fn fields_open_independently() {
        // Structure can be revealed without content: the content opening
        // stays secret and the preds opening reveals nothing about it.
        let mut rng = rng();
        let content = VertexContent::Variable { routes: vec![sample_route()] };
        let (rec, open) = make_record(&[Label::Var(0)], &[], &content, &mut rng);
        // A verifier holding only the preds opening cannot open content
        // with it.
        assert!(verify_content(&rec, &open.preds).is_none());
        assert!(verify_preds(&rec, &open.content).is_none());
    }

    #[test]
    fn swapped_openings_rejected() {
        let mut rng = rng();
        let c1 = VertexContent::Operator { kind: OperatorKind::MinPathLen };
        let c2 = VertexContent::Operator { kind: OperatorKind::Existential };
        let (rec1, _) = make_record(&[], &[], &c1, &mut rng);
        let (_, open2) = make_record(&[], &[], &c2, &mut rng);
        assert!(verify_content(&rec1, &open2.content).is_none());
    }

    #[test]
    fn hiding_identical_structures_differ() {
        // Two vertices with the same edges commit differently (blinding),
        // so a neighbor cannot correlate them.
        let mut rng = rng();
        let content = VertexContent::Operator { kind: OperatorKind::Union };
        let (r1, _) = make_record(&[Label::Var(0)], &[], &content, &mut rng);
        let (r2, _) = make_record(&[Label::Var(0)], &[], &content, &mut rng);
        assert_ne!(r1.preds, r2.preds);
        assert_ne!(r1.content, r2.content);
    }

    #[test]
    fn label_list_encoding_round_trip() {
        let labels = vec![Label::Var(1), Label::Rule(2), Label::Slot(3, 4)];
        assert_eq!(decode_labels(&encode_labels(&labels)).unwrap(), labels);
        assert!(decode_labels(b"garbage!").is_err());
    }
}
