//! Neighbor-side graph navigation (§3.7).
//!
//! "We must enable a network's route-flow graph to be navigated by that
//! network's neighbors without learning about the existence of rules or
//! variables they are not authorized to see." A neighbor receives
//! [`GraphReveal`]s — MHT-proven vertex records with a subset of the
//! three openings — reconstructs the *visible* part of the graph, and
//! statically checks that the structure implements the promise (§2.2:
//! "based purely on static inspection of the route-flow graph, tracing
//! connections from input variables to output variables").

use crate::record::{verify_content, verify_preds, verify_succs, VertexContent, VertexRecord};
use crate::session::GraphReveal;
use pvr_crypto::sha256::Digest;
use pvr_mht::{Label, ProofBatch};
use pvr_rfg::OperatorKind;
use std::collections::BTreeMap;

/// A vertex as visible to one neighbor: only authorized fields are
/// populated.
#[derive(Clone, Debug)]
pub struct VisibleVertex {
    /// The committed record (always proven against the root).
    pub record: VertexRecord,
    /// Opened predecessor labels, if structure was revealed.
    pub preds: Option<Vec<Label>>,
    /// Opened successor labels, if structure was revealed.
    pub succs: Option<Vec<Label>>,
    /// Opened content, if revealed.
    pub content: Option<VertexContent>,
}

/// Errors during reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NavError {
    /// A reveal's MHT proof does not bind to the signed root.
    BadProof(Label),
    /// A leaf payload failed to parse as a vertex record.
    BadRecord(Label),
    /// An opening did not match its commitment.
    BadOpening(Label),
    /// The same vertex was revealed twice inconsistently.
    Duplicate(Label),
}

/// The graph as visible to one neighbor.
#[derive(Clone, Debug, Default)]
pub struct VisibleGraph {
    vertices: BTreeMap<Label, VisibleVertex>,
}

impl VisibleGraph {
    /// Validates reveals against the committed `root` and assembles the
    /// visible graph. Every proof must verify; every present opening
    /// must open its commitment.
    pub fn reconstruct(reveals: &[GraphReveal], root: &Digest) -> Result<VisibleGraph, NavError> {
        let mut vertices = BTreeMap::new();
        let mut batch = ProofBatch::new(*root);
        for r in reveals {
            let label = r.proof.label.clone();
            if !batch.verify(&r.proof) {
                return Err(NavError::BadProof(label));
            }
            let record: VertexRecord = pvr_crypto::decode_exact(&r.proof.payload)
                .map_err(|_| NavError::BadRecord(label.clone()))?;
            let preds = match &r.preds {
                None => None,
                Some(o) => {
                    Some(verify_preds(&record, o).ok_or(NavError::BadOpening(label.clone()))?)
                }
            };
            let succs = match &r.succs {
                None => None,
                Some(o) => {
                    Some(verify_succs(&record, o).ok_or(NavError::BadOpening(label.clone()))?)
                }
            };
            let content = match &r.content {
                None => None,
                Some(o) => {
                    Some(verify_content(&record, o).ok_or(NavError::BadOpening(label.clone()))?)
                }
            };
            let v = VisibleVertex { record, preds, succs, content };
            if vertices.insert(label.clone(), v).is_some() {
                return Err(NavError::Duplicate(label));
            }
        }
        Ok(VisibleGraph { vertices })
    }

    /// The vertex at `label`, if visible.
    pub fn vertex(&self, label: &Label) -> Option<&VisibleVertex> {
        self.vertices.get(label)
    }

    /// Number of visible vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when nothing is visible.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The opened operator kind at `label`, if visible.
    pub fn operator_kind(&self, label: &Label) -> Option<&OperatorKind> {
        match self.vertices.get(label)?.content.as_ref()? {
            VertexContent::Operator { kind } => Some(kind),
            VertexContent::Variable { .. } => None,
        }
    }

    /// §2.2 static check over *committed* data: is the vertex computing
    /// `output` an operator of kind `expected`, reading exactly
    /// `expected_inputs` (order-insensitive)? This is what B runs to
    /// convince itself "that the minimum was computed over routes
    /// provided specifically by N_1, …, N_k, even if it is not
    /// authorized to see what the routes were" (§3.7).
    pub fn check_single_operator_promise(
        &self,
        output: &Label,
        expected: &OperatorKind,
        expected_inputs: &[Label],
    ) -> bool {
        // The output variable's preds must name exactly one operator…
        let Some(out_v) = self.vertices.get(output) else {
            return false;
        };
        let Some(preds) = &out_v.preds else {
            return false;
        };
        let [op_label] = preds.as_slice() else {
            return false;
        };
        // …whose content is the expected kind…
        let Some(op_v) = self.vertices.get(op_label) else {
            return false;
        };
        if self.operator_kind(op_label) != Some(expected) {
            return false;
        }
        // …and whose inputs are exactly the expected input variables.
        let Some(op_preds) = &op_v.preds else {
            return false;
        };
        let mut got: Vec<&Label> = op_preds.iter().collect();
        let mut want: Vec<&Label> = expected_inputs.iter().collect();
        got.sort();
        want.sort();
        if got != want {
            return false;
        }
        // Each input must point back at the operator (consistency), when
        // its structure is visible.
        for input in expected_inputs {
            if let Some(iv) = self.vertices.get(input) {
                if let Some(succs) = &iv.succs {
                    if !succs.contains(op_label) {
                        return false;
                    }
                }
                if let Some(preds) = &iv.preds {
                    if !preds.is_empty() {
                        return false; // inputs are not computed
                    }
                }
            }
        }
        true
    }

    /// Static check for the Figure 2 shape: `output` is computed by
    /// `ShorterOf(fallback_var, v)` where `v` is computed by
    /// `MinPathLen` over `preferred_inputs`.
    pub fn check_figure2_promise(
        &self,
        output: &Label,
        fallback_input: &Label,
        preferred_inputs: &[Label],
    ) -> bool {
        let Some(out_v) = self.vertices.get(output) else {
            return false;
        };
        let Some(preds) = &out_v.preds else {
            return false;
        };
        let [choose_label] = preds.as_slice() else {
            return false;
        };
        if self.operator_kind(choose_label) != Some(&OperatorKind::ShorterOf) {
            return false;
        }
        let Some(choose) = self.vertices.get(choose_label) else {
            return false;
        };
        let Some(choose_preds) = &choose.preds else {
            return false;
        };
        // ShorterOf inputs are ordered: [fallback, preferred-min var].
        let [fb, min_var] = choose_preds.as_slice() else {
            return false;
        };
        if fb != fallback_input {
            return false;
        }
        // The preferred side is the min over the preferred inputs.
        self.check_single_operator_promise(min_var, &OperatorKind::MinPathLen, preferred_inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;
    use pvr_bgp::Asn;
    use pvr_rfg::AccessPolicy;

    fn everyone(bed: &Figure1Bed) -> Vec<Asn> {
        bed.cast().neighbors().collect()
    }

    fn input_labels(bed: &Figure1Bed) -> Vec<Label> {
        bed.input_vars.iter().map(|v| Label::Var(v.0)).collect()
    }

    #[test]
    fn b_verifies_min_structure_without_route_values() {
        let bed = Figure1Bed::build(&[2, 3, 4], 101);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        let g = VisibleGraph::reconstruct(&reveals, &c.signed_root().root).unwrap();
        let out = Label::Var(bed.output_var.0);
        assert!(g.check_single_operator_promise(
            &out,
            &OperatorKind::MinPathLen,
            &input_labels(&bed),
        ));
        // B must NOT see the input route values (only its own output).
        for l in input_labels(&bed) {
            assert!(g.vertex(&l).unwrap().content.is_none(), "{l:?} leaked to B");
        }
    }

    #[test]
    fn wrong_operator_expectation_fails() {
        let bed = Figure1Bed::build(&[2, 3], 102);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        let g = VisibleGraph::reconstruct(&reveals, &c.signed_root().root).unwrap();
        let out = Label::Var(bed.output_var.0);
        assert!(!g.check_single_operator_promise(
            &out,
            &OperatorKind::Existential,
            &input_labels(&bed),
        ));
    }

    #[test]
    fn wrong_input_set_fails() {
        // If A had wired the min over a subset only, the check against
        // the full expected set must fail.
        let bed = Figure1Bed::build(&[2, 3, 4], 103);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        let g = VisibleGraph::reconstruct(&reveals, &c.signed_root().root).unwrap();
        let out = Label::Var(bed.output_var.0);
        let missing_one = &input_labels(&bed)[..2];
        assert!(!g.check_single_operator_promise(&out, &OperatorKind::MinPathLen, missing_one));
    }

    #[test]
    fn figure2_structure_verifies() {
        let bed = Figure1Bed::build_figure2(&[2, 3, 4], 104);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        let g = VisibleGraph::reconstruct(&reveals, &c.signed_root().root).unwrap();
        let out = Label::Var(bed.output_var.0);
        let inputs = input_labels(&bed);
        assert!(g.check_figure2_promise(&out, &inputs[0], &inputs[1..]));
        // Swapping fallback and a preferred input must fail.
        assert!(!g.check_figure2_promise(&out, &inputs[1], &inputs[1..]));
        // And the plain min check must fail on the figure-2 graph.
        assert!(!g.check_single_operator_promise(&out, &OperatorKind::MinPathLen, &inputs));
    }

    #[test]
    fn tampered_proof_rejected() {
        let bed = Figure1Bed::build(&[2, 3], 105);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let mut reveals = c.graph_disclosure_for(bed.b, &alpha);
        reveals[0].proof.payload[0] ^= 1;
        assert!(matches!(
            VisibleGraph::reconstruct(&reveals, &c.signed_root().root),
            Err(NavError::BadProof(_) | NavError::BadRecord(_))
        ));
    }

    #[test]
    fn swapped_opening_rejected() {
        let bed = Figure1Bed::build(&[2, 3], 106);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let mut reveals = c.graph_disclosure_for(bed.b, &alpha);
        // Swap the preds openings of two vertices.
        let stolen = reveals[1].preds.clone();
        reveals[0].preds = stolen;
        assert!(matches!(
            VisibleGraph::reconstruct(&reveals, &c.signed_root().root),
            Err(NavError::BadOpening(_))
        ));
    }

    #[test]
    fn partial_visibility_is_partial() {
        // A provider sees structure but its check with full content
        // expectations fails gracefully for vertices it cannot open.
        let bed = Figure1Bed::build(&[2, 3], 107);
        let c = bed.honest_committer();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone(&bed));
        let reveals = c.graph_disclosure_for(bed.ns[0], &alpha);
        let g = VisibleGraph::reconstruct(&reveals, &c.signed_root().root).unwrap();
        // N1 can see its own input's value…
        let own = Label::Var(bed.input_vars[0].0);
        assert!(g.vertex(&own).unwrap().content.is_some());
        // …but not N2's.
        let other = Label::Var(bed.input_vars[1].0);
        assert!(g.vertex(&other).unwrap().content.is_none());
        // And N1 can still verify the min structure.
        let out = Label::Var(bed.output_var.0);
        assert!(g.check_single_operator_promise(&out, &OperatorKind::MinPathLen, &[own, other],));
    }
}
