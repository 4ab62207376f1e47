//! The Confidentiality auditor (§2.3, experiment E7).
//!
//! "Confidentiality: No AS will learn information from running PVR that
//! it could not learn in the unsecured system, unless this was
//! explicitly authorized by α."
//!
//! We operationalize this as **counterfactual indistinguishability**:
//! run the protocol twice on inputs that differ only in facts a
//! participant is *not* authorized to learn, and compare that
//! participant's views. Because commitments are hiding, the views can
//! differ in opaque cryptographic material (hashes, blindings,
//! signatures over them) without leaking anything; what must be
//! *identical* is the view's **information content** — every opened
//! value. [`redact`] extracts exactly that content from a transcript,
//! and the audit compares redacted views.
//!
//! The §3.3 construction passes this audit because the bit vector is
//! the monotone closure of the minimum (see [`crate::bits`]): changing
//! a non-minimal route's length changes no opened bit, no exported
//! route, and no revealed index for anyone else.

use crate::harness::Figure1Bed;
use crate::round::{run_min_round, Transcript};
use crate::session::Disclosure;
use pvr_bgp::{Asn, Route};
use pvr_crypto::decode_exact;
use pvr_mht::SignedRoot;
use std::collections::BTreeMap;

/// The information content of a participant's view: everything that was
/// actually *opened* to it, with all hiding material (digests,
/// blindings, signatures) stripped.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RedactedView {
    /// Root messages seen: only (signer, context, epoch) — the root hash
    /// itself is opaque.
    pub roots: Vec<(u64, Vec<u8>, u64)>,
    /// Opened bits: (index, value) pairs per disclosure.
    pub opened_bits: Vec<Vec<(u32, Option<bool>)>>,
    /// Exported routes received (route content is authorized knowledge
    /// for the receiver).
    pub exported_routes: Vec<Option<Route>>,
    /// Which record fields were opened per graph reveal, per disclosure.
    pub graph_openings: Vec<Vec<(bool, bool, bool)>>,
}

/// Extracts the redacted view from a raw transcript.
pub fn redact(transcript: &Transcript) -> RedactedView {
    let mut view = RedactedView::default();
    for (label, bytes) in &transcript.received {
        match label.as_str() {
            "root" | "gossip" => {
                if let Ok(sr) = decode_exact::<SignedRoot>(bytes) {
                    view.roots.push((sr.signer, sr.context.clone(), sr.epoch));
                }
            }
            "disclosure" => {
                if let Ok(d) = decode_exact::<Disclosure>(bytes) {
                    view.opened_bits
                        .push(d.bit_reveals.iter().map(|r| (r.index, r.bit())).collect());
                    view.exported_routes.push(d.exported.map(|sr| sr.route));
                    view.graph_openings.push(
                        d.graph
                            .iter()
                            .map(|g| (g.preds.is_some(), g.succs.is_some(), g.content.is_some()))
                            .collect(),
                    );
                }
            }
            _ => {}
        }
    }
    view
}

/// The outcome of a counterfactual audit for every participant.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Participants whose *information content* changed between runs.
    pub content_changed: BTreeMap<Asn, bool>,
    /// Participants whose raw bytes changed (expected: commitment
    /// material depends on all committed values, so raw changes are
    /// fine — only opened content matters).
    pub raw_changed: BTreeMap<Asn, bool>,
}

impl AuditOutcome {
    /// True if no participant outside `authorized` saw a content change.
    pub fn confidential_except(&self, authorized: &[Asn]) -> bool {
        self.content_changed.iter().all(|(n, &changed)| !changed || authorized.contains(n))
    }
}

/// Runs the honest §3.3 protocol on two input vectors and compares every
/// participant's views. `lens_a` and `lens_b` give the providers' route
/// lengths in each world (same provider count).
pub fn counterfactual_min_audit(lens_a: &[usize], lens_b: &[usize], seed: u64) -> AuditOutcome {
    assert_eq!(lens_a.len(), lens_b.len(), "same provider set in both worlds");
    let bed_a = Figure1Bed::build(lens_a, seed);
    let bed_b = Figure1Bed::build(lens_b, seed);
    let report_a = run_min_round(&bed_a, None);
    let report_b = run_min_round(&bed_b, None);

    let mut content_changed = BTreeMap::new();
    let mut raw_changed = BTreeMap::new();
    for (&n, ta) in &report_a.transcripts {
        let tb = &report_b.transcripts[&n];
        content_changed.insert(n, redact(ta) != redact(tb));
        raw_changed.insert(n, ta != tb);
    }
    AuditOutcome { content_changed, raw_changed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_minimal_change_is_invisible_to_everyone_else() {
        // World A: N2's route has length 3; world B: length 5. The min
        // (N1's length-2 route) is unchanged, so:
        //  * N1's view content must not change (it would otherwise learn
        //    something about N2's route — exactly what α forbids);
        //  * B's view content must not change (same route, same bits);
        //  * N2's own view changes (its revealed index moves) — that is
        //    authorized: N2 knows its own route.
        let outcome = counterfactual_min_audit(&[2, 3], &[2, 5], 81);
        let n1 = Asn(1);
        let n2 = Asn(2);
        let b = Asn(200);
        assert!(!outcome.content_changed[&n1], "N1 learned about N2's change");
        assert!(!outcome.content_changed[&b], "B learned about N2's change");
        assert!(outcome.content_changed[&n2], "N2's own view legitimately changes");
        assert!(outcome.confidential_except(&[n2]));
    }

    #[test]
    fn raw_bytes_may_differ_but_content_not() {
        // The commitment tree differs between worlds (it commits to N2's
        // route), so raw views differ — the point is that only opaque
        // material differs.
        let outcome = counterfactual_min_audit(&[2, 3], &[2, 5], 82);
        let b = Asn(200);
        assert!(outcome.raw_changed[&b], "commitment material should differ");
        assert!(!outcome.content_changed[&b], "but no opened value may differ");
    }

    #[test]
    fn minimal_change_is_visible_to_b_only_through_the_route() {
        // If the *minimum* changes (N1: 2 → 1), B legitimately sees a
        // different route and bit vector; the paper: "B obviously learns
        // the chosen route".
        let outcome = counterfactual_min_audit(&[2, 3], &[1, 3], 83);
        let b = Asn(200);
        let n1 = Asn(1);
        assert!(outcome.content_changed[&b]);
        assert!(outcome.content_changed[&n1], "N1's own route changed");
        // N2's bit at length 3 is 1 in both worlds (min ≤ 3 both times),
        // so N2 sees no content change: it cannot tell whether the
        // shortest route got shorter.
        let n2 = Asn(2);
        assert!(!outcome.content_changed[&n2]);
    }

    #[test]
    fn equal_worlds_have_equal_views() {
        let outcome = counterfactual_min_audit(&[2, 4, 3], &[2, 4, 3], 84);
        for (&n, &changed) in &outcome.content_changed {
            assert!(!changed, "{n} changed in identical worlds");
        }
        for (&n, &changed) in &outcome.raw_changed {
            assert!(!changed, "{n} raw-changed in identical worlds");
        }
    }

    #[test]
    fn adding_longer_alternatives_is_invisible() {
        // Three providers; N3's route goes 6 → 9. Nobody but N3 may
        // notice.
        let outcome = counterfactual_min_audit(&[2, 4, 6], &[2, 4, 9], 85);
        assert!(outcome.confidential_except(&[Asn(3)]));
    }

    #[test]
    fn redaction_extracts_opened_bits() {
        let bed = Figure1Bed::build(&[2, 3], 86);
        let report = run_min_round(&bed, None);
        let view = redact(&report.transcripts[&bed.b]);
        // B gets all bits and the exported route.
        assert_eq!(view.opened_bits[0].len(), bed.params.max_path_len);
        assert_eq!(view.exported_routes.len(), 1);
        assert!(view.exported_routes[0].is_some());
        // Providers get exactly one bit.
        let view = redact(&report.transcripts[&bed.ns[0]]);
        assert_eq!(view.opened_bits[0].len(), 1);
        assert_eq!(view.opened_bits[0][0], (2, Some(true)));
    }
}
