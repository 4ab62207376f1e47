//! Protocol support for the rest of the §2 promise ladder.
//!
//! §3 constructs protocols for the existential and minimum operators
//! only; §4 ("More operators") leaves the rest as a challenge. This
//! module extends the same three building blocks (§3.4) to:
//!
//! * **Promise 3** — "I will give you a route no more than ε hops
//!   longer than my best route": the receiver reuses the §3.3 bit
//!   vector but accepts any export within `ε` of the committed minimum;
//! * **Promise 4** — "The route you get is no longer than what I tell
//!   anybody else": receivers gossip their *attested exports* (which
//!   standard BGP already reveals to each of them individually) and any
//!   pair showing a shorter route to someone else is self-contained
//!   evidence, exactly like equivocation.

use crate::evidence::{attested_by, Suspicion, Verdict};
use crate::session::{Disclosure, PvrParams, RoundContext};
use crate::verify::Outcome;
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::keys::KeyStore;
use std::collections::BTreeMap;

/// Receiver-side verification for promise 3: the exported route may be
/// up to `epsilon` hops longer than the committed minimum. `epsilon = 0`
/// degenerates to the §3.3 shortest-route check.
pub fn verify_as_receiver_with_epsilon(
    me: Asn,
    a: Asn,
    round: &RoundContext,
    params: &PvrParams,
    epsilon: usize,
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    // Run the strict check first; only the "too long" outcome is
    // relaxed by ε.
    let strict = crate::verify::verify_as_receiver(me, a, round, params, disclosure, keys);
    match &strict {
        Outcome::Accuse(crate::evidence::Evidence::ExportTooLong { reveal, exported, .. }) => {
            let core_len = exported.route.path_len().saturating_sub(1);
            if core_len <= reveal.index as usize + epsilon {
                Outcome::Accept
            } else {
                strict
            }
        }
        _ => strict,
    }
}

/// Transferable evidence for promise 4: A attested a strictly shorter
/// route to `favored` than to `disfavored` in the same round. Both
/// attestations carry A's signature, so the pair convinces any third
/// party — no trust in either receiver needed.
#[derive(Clone, Debug)]
pub struct UnequalExportsEvidence {
    /// The export A attested to the disfavored receiver (longer).
    pub to_disfavored: SignedRoute,
    /// The disfavored receiver.
    pub disfavored: Asn,
    /// The export A attested to the favored receiver (strictly shorter).
    pub to_favored: SignedRoute,
    /// The favored receiver.
    pub favored: Asn,
}

impl UnequalExportsEvidence {
    /// Third-party judgment: both top attestations by `accused` valid,
    /// same prefix, favored strictly shorter ⟹ guilty.
    pub fn judge(&self, accused: Asn, round: &RoundContext, keys: &KeyStore) -> Verdict {
        for (sr, receiver) in
            [(&self.to_disfavored, self.disfavored), (&self.to_favored, self.favored)]
        {
            if let Err(why) = attested_by(sr, accused, receiver, round, keys) {
                return Verdict::Rejected(why);
            }
        }
        if self.favored == self.disfavored {
            return Verdict::Rejected("same receiver on both sides");
        }
        if self.to_favored.route.path_len() < self.to_disfavored.route.path_len() {
            Verdict::Guilty
        } else {
            Verdict::Rejected("favored route is not shorter")
        }
    }
}

/// Promise-4 gossip check: each receiver contributes the export A
/// attested to it; any receiver whose route is longer than another's
/// obtains [`UnequalExportsEvidence`]. Returns evidence for the first
/// (disfavored, favored) pair found, from the perspective of `me`.
pub fn cross_check_exports(
    me: Asn,
    my_export: &SignedRoute,
    others: &BTreeMap<Asn, SignedRoute>,
) -> Option<UnequalExportsEvidence> {
    let my_len = my_export.route.path_len();
    for (&other, sr) in others {
        if other == me {
            continue;
        }
        if sr.route.path_len() < my_len {
            return Some(UnequalExportsEvidence {
                to_disfavored: my_export.clone(),
                disfavored: me,
                to_favored: sr.clone(),
                favored: other,
            });
        }
    }
    None
}

/// Receiver outcome for promise 4 on top of the per-receiver §3.3
/// checks: verify own disclosure strictly, then cross-check exports.
pub fn verify_promise4(
    me: Asn,
    a: Asn,
    round: &RoundContext,
    params: &PvrParams,
    disclosure: &Disclosure,
    others_exports: &BTreeMap<Asn, SignedRoute>,
    keys: &KeyStore,
) -> (Outcome, Option<UnequalExportsEvidence>) {
    let own = crate::verify::verify_as_receiver(me, a, round, params, disclosure, keys);
    let cross = match &disclosure.exported {
        Some(mine) => cross_check_exports(me, mine, others_exports),
        None => {
            // Receiving nothing while someone else received a route is
            // the "infinitely long" case: detectable but (like other
            // omissions) only as suspicion from this receiver's side —
            // the favored receiver's evidence does the convicting.
            if !others_exports.is_empty() {
                return (Outcome::Suspect(Suspicion::WithheldExport { index: 0 }), None);
            }
            None
        }
    };
    (own, cross)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;

    /// Builds the export A would attest when choosing `provider_index`'s
    /// route, toward receiver `to` (for building promise-3/4 scenarios).
    fn export_via(bed: &Figure1Bed, provider_index: usize, to: Asn) -> SignedRoute {
        let n = bed.ns[provider_index];
        let received = bed.input_of(n);
        let out = received.route.clone().propagated_by(bed.a);
        SignedRoute::extend(received, bed.a_identity(), out, to)
    }

    #[test]
    fn epsilon_relaxes_strictness_exactly() {
        // Min is 2; a 3-hop export violates ε=0 but passes ε=1.
        let bed = Figure1Bed::build(&[2, 3], 201);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.exported = Some(export_via(&bed, 1, bed.b)); // core length 3
        let strict = verify_as_receiver_with_epsilon(
            bed.b,
            bed.a,
            &bed.round,
            &bed.params,
            0,
            &d,
            &bed.keys,
        );
        assert!(!strict.is_accept(), "{strict:?}");
        let relaxed = verify_as_receiver_with_epsilon(
            bed.b,
            bed.a,
            &bed.round,
            &bed.params,
            1,
            &d,
            &bed.keys,
        );
        assert!(relaxed.is_accept(), "{relaxed:?}");
    }

    #[test]
    fn epsilon_still_catches_gross_violations() {
        // Min is 2; a 6-hop export exceeds ε=1.
        let bed = Figure1Bed::build(&[2, 6], 202);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.exported = Some(export_via(&bed, 1, bed.b)); // core length 6
        let o = verify_as_receiver_with_epsilon(
            bed.b,
            bed.a,
            &bed.round,
            &bed.params,
            1,
            &d,
            &bed.keys,
        );
        assert!(!o.is_accept());
        assert_eq!(o.evidence().map(|e| e.kind()), Some("export-too-long"));
    }

    #[test]
    fn epsilon_does_not_mask_other_violations() {
        // Equivocation-adjacent faults (bad root etc.) stay caught.
        let bed = Figure1Bed::build(&[2, 3], 203);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.signed_root = None;
        let o = verify_as_receiver_with_epsilon(
            bed.b,
            bed.a,
            &bed.round,
            &bed.params,
            5,
            &d,
            &bed.keys,
        );
        assert!(!o.is_accept());
    }

    #[test]
    fn promise4_unequal_exports_convict() {
        let bed = Figure1Bed::build(&[2, 4], 204);
        let b2 = Asn(300);
        // A sends B the long route and B2 the short one.
        let to_b = export_via(&bed, 1, bed.b); // 4+1 hops
        let to_b2 = export_via(&bed, 0, b2); // 2+1 hops
        let mut others = BTreeMap::new();
        others.insert(b2, to_b2);
        let ev = cross_check_exports(bed.b, &to_b, &others).expect("B is disfavored");
        assert_eq!(ev.judge(bed.a, &bed.round, &bed.keys), Verdict::Guilty);
    }

    #[test]
    fn promise4_equal_exports_are_clean() {
        let bed = Figure1Bed::build(&[2, 4], 205);
        let b2 = Asn(300);
        let to_b = export_via(&bed, 0, bed.b);
        let to_b2 = export_via(&bed, 0, b2);
        let mut others = BTreeMap::new();
        others.insert(b2, to_b2);
        assert!(cross_check_exports(bed.b, &to_b, &others).is_none());
    }

    #[test]
    fn promise4_forged_evidence_rejected() {
        // An accuser cannot fabricate the favored route: its top
        // attestation must be A's valid signature for that receiver.
        let bed = Figure1Bed::build(&[2, 4], 206);
        let b2 = Asn(300);
        let to_b = export_via(&bed, 1, bed.b);
        let mut forged = export_via(&bed, 0, b2);
        // Tamper with the attested path (shorten it further).
        forged.route.path = pvr_bgp::AsPath::from_slice(&[bed.a]);
        let ev = UnequalExportsEvidence {
            to_disfavored: to_b,
            disfavored: bed.b,
            to_favored: forged,
            favored: b2,
        };
        assert!(matches!(ev.judge(bed.a, &bed.round, &bed.keys), Verdict::Rejected(_)));
    }

    #[test]
    fn promise4_same_receiver_rejected() {
        let bed = Figure1Bed::build(&[2, 4], 207);
        let to_b = export_via(&bed, 1, bed.b);
        let to_b_short = export_via(&bed, 0, bed.b);
        let ev = UnequalExportsEvidence {
            to_disfavored: to_b,
            disfavored: bed.b,
            to_favored: to_b_short,
            favored: bed.b,
        };
        assert!(matches!(ev.judge(bed.a, &bed.round, &bed.keys), Verdict::Rejected(_)));
    }

    #[test]
    fn promise4_full_flow() {
        let bed = Figure1Bed::build(&[2, 4], 208);
        let b2 = Asn(300);
        let c = bed.honest_committer();
        // Disfavored B gets the longer route in its disclosure.
        let mut d = c.disclosure_for_receiver(bed.b);
        d.exported = Some(export_via(&bed, 1, bed.b));
        let mut others = BTreeMap::new();
        others.insert(b2, export_via(&bed, 0, b2));
        let (own, cross) =
            verify_promise4(bed.b, bed.a, &bed.round, &bed.params, &d, &others, &bed.keys);
        // Own §3.3 check already catches the non-minimal export…
        assert!(!own.is_accept());
        // …and the cross-check independently yields promise-4 evidence.
        let ev = cross.expect("cross evidence");
        assert_eq!(ev.judge(bed.a, &bed.round, &bed.keys), Verdict::Guilty);
    }

    #[test]
    fn promise4_withheld_export_is_suspicion() {
        let bed = Figure1Bed::build(&[2, 4], 209);
        let b2 = Asn(300);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.exported = None;
        let mut others = BTreeMap::new();
        others.insert(b2, export_via(&bed, 0, b2));
        let (own, cross) =
            verify_promise4(bed.b, bed.a, &bed.round, &bed.params, &d, &others, &bed.keys);
        assert!(matches!(own, Outcome::Suspect(_)));
        assert!(cross.is_none());
    }
}
