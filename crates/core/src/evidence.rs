//! Evidence of promise violations, and the third-party auditor.
//!
//! §2.3 Evidence: "If an incorrect evaluation is detected in an AS A,
//! then at least one AS B can obtain evidence against A that will
//! convince a third party." §2.3 Accuracy: "If an AS A has evaluated its
//! route-flow graph correctly, no correct AS can detect a violation in
//! A, and A can disprove any evidence that is presented against it."
//!
//! Every variant below is *self-contained*: the auditor judges from the
//! evidence bytes plus the public key store alone, trusting neither the
//! accuser nor the accused. Accuracy holds because each variant requires
//! a signature an honest A would never produce (two conflicting roots, a
//! committed bit contradicting an attested route, a non-monotone
//! vector) — except `FabricatedExport`, whose "the chain below A's
//! attestation is broken" an accuser can bring about itself (ROADMAP
//! item 10 g).

use crate::session::{BitReveal, PvrParams, RoundContext};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::keys::KeyStore;
use pvr_mht::{EquivocationEvidence, ProofBatch, SignedRoot};

/// Transferable evidence that a network misbehaved in one round.
#[derive(Clone, Debug)]
pub enum Evidence {
    /// Two conflicting signed roots for the same round (§3.6 gossip).
    Equivocation(EquivocationEvidence),
    /// A provider's case (§3.3 condition 3): it sent A an attested route
    /// of length `reveal.index` (or shorter), yet A committed
    /// `b_{index} = 0`.
    IgnoredInput {
        /// A's signed commitment.
        signed_root: SignedRoot,
        /// The revealed zero bit with its proof.
        reveal: BitReveal,
        /// The provider's own attested announcement to A.
        provided: SignedRoute,
    },
    /// The receiver's case: A committed that a route of length
    /// `reveal.index` existed (`b = 1`), yet exported a strictly longer
    /// route.
    ExportTooLong {
        /// A's signed commitment.
        signed_root: SignedRoot,
        /// The revealed one bit at the claimed minimum.
        reveal: BitReveal,
        /// The route A attested to the receiver.
        exported: SignedRoute,
        /// The receiver the route was attested to.
        receiver: Asn,
    },
    /// The receiver's case: A exported a route whose (pre-prepend)
    /// length is `reveal.index`, yet committed `b_{index} = 0` — the
    /// commitment denies the very route A exported.
    ExportContradictsBits {
        /// A's signed commitment.
        signed_root: SignedRoot,
        /// The revealed zero bit at the exported route's core length.
        reveal: BitReveal,
        /// The route A attested to the receiver.
        exported: SignedRoute,
        /// The receiver the route was attested to.
        receiver: Asn,
    },
    /// The bit vector violates §3.3 monotonicity: `b_lo = 1` but
    /// `b_hi = 0` for `hi > lo`.
    NonMonotone {
        /// A's signed commitment.
        signed_root: SignedRoot,
        /// The revealed one bit.
        lo: BitReveal,
        /// The revealed zero bit at a higher index.
        hi: BitReveal,
    },
    /// A attested an export whose inner chain is forged: A's own (top)
    /// attestation verifies, the rest does not — A vouched for a route
    /// nobody gave it (§3.2 condition 1).
    FabricatedExport {
        /// The route A attested to the receiver.
        exported: SignedRoute,
        /// The receiver the route was attested to.
        receiver: Asn,
    },
}

impl Evidence {
    /// Short human-readable kind (for reports and tables).
    pub fn kind(&self) -> &'static str {
        match self {
            Evidence::Equivocation(_) => "equivocation",
            Evidence::IgnoredInput { .. } => "ignored-input",
            Evidence::ExportTooLong { .. } => "export-too-long",
            Evidence::ExportContradictsBits { .. } => "export-contradicts-bits",
            Evidence::NonMonotone { .. } => "non-monotone",
            Evidence::FabricatedExport { .. } => "fabricated-export",
        }
    }
}

/// Observable irregularities that are grounds for alarm but are *not*
/// transferable proof (they could equally be caused by the network or
/// the accuser): the paper's Detection property covers them, Evidence
/// does not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Suspicion {
    /// No disclosure arrived at all.
    MissingDisclosure,
    /// The signed root is absent or its signature is invalid.
    BadRootSignature,
    /// A required bit reveal is missing.
    MissingReveal {
        /// The 1-based bit index that was expected.
        index: u32,
    },
    /// A reveal's proof or payload does not check out against the root.
    BadReveal {
        /// The offending index.
        index: u32,
    },
    /// The exported route's attestation chain is invalid in a way that
    /// does not implicate A specifically.
    BadExportChain,
    /// A committed that a route exists (bit at `index` set, or the
    /// existential bit for `index = 0`) but exported nothing. Omission
    /// is detectable, not third-party-provable.
    WithheldExport {
        /// The bit index whose commitment implies a route exists.
        index: u32,
    },
}

/// The verdict a third party reaches on a piece of evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The accused provably misbehaved.
    Guilty,
    /// The evidence does not prove misbehavior (Accuracy: honest networks
    /// are never found guilty).
    Rejected(&'static str),
}

/// A third party that judges evidence with only public information.
pub struct Auditor<'a> {
    keys: &'a KeyStore,
    params: PvrParams,
}

impl<'a> Auditor<'a> {
    /// Creates an auditor over the public key store.
    pub fn new(keys: &'a KeyStore, params: PvrParams) -> Auditor<'a> {
        Auditor { keys, params }
    }

    /// Judges evidence accusing `accused` for `round`.
    pub fn judge(&self, accused: Asn, round: &RoundContext, evidence: &Evidence) -> Verdict {
        match evidence {
            Evidence::Equivocation(ev) => match ev.judge(self.keys) {
                Ok(signer) if signer == accused.principal() => Verdict::Guilty,
                Ok(_) => Verdict::Rejected("conflicting roots signed by someone else"),
                Err(_) => Verdict::Rejected("equivocation pair does not verify"),
            },
            Evidence::IgnoredInput { signed_root, reveal, provided } => {
                if let Err(v) = self.check_root(accused, round, signed_root) {
                    return v;
                }
                let mut batch = ProofBatch::new(signed_root.root);
                if let Err(v) = Self::check_reveal(&mut batch, reveal, false, self.params) {
                    return v;
                }
                // The provider's chain must verify as delivered to the
                // accused — the accuser cannot fabricate it alone, since
                // it embeds every upstream AS's signature.
                if provided.verify(accused, self.keys).is_err() {
                    return Verdict::Rejected("provided route chain invalid");
                }
                if provided.route.prefix != round.prefix {
                    return Verdict::Rejected("provided route is for another prefix");
                }
                // Index 0 is the existential bit: any provided route
                // contradicts it. Otherwise the route must be at least as
                // short as the denied length bound.
                if reveal.index != 0 && provided.route.path_len() > reveal.index as usize {
                    return Verdict::Rejected("provided route longer than the denied bit");
                }
                Verdict::Guilty
            }
            Evidence::ExportTooLong { signed_root, reveal, exported, receiver } => {
                if let Err(v) = self.check_root(accused, round, signed_root) {
                    return v;
                }
                let mut batch = ProofBatch::new(signed_root.root);
                if let Err(v) = Self::check_reveal(&mut batch, reveal, true, self.params) {
                    return v;
                }
                if let Err(why) = attested_by(exported, accused, *receiver, round, self.keys) {
                    return Verdict::Rejected(why);
                }
                // Core length (minus A's own prepend) must exceed the
                // committed minimum.
                if exported.route.path_len().saturating_sub(1) <= reveal.index as usize {
                    return Verdict::Rejected("exported route is not longer than committed min");
                }
                Verdict::Guilty
            }
            Evidence::ExportContradictsBits { signed_root, reveal, exported, receiver } => {
                if let Err(v) = self.check_root(accused, round, signed_root) {
                    return v;
                }
                let mut batch = ProofBatch::new(signed_root.root);
                if let Err(v) = Self::check_reveal(&mut batch, reveal, false, self.params) {
                    return v;
                }
                if let Err(why) = attested_by(exported, accused, *receiver, round, self.keys) {
                    return Verdict::Rejected(why);
                }
                // Index 0 = existential bit: any export contradicts it.
                if reveal.index != 0
                    && exported.route.path_len().saturating_sub(1) != reveal.index as usize
                {
                    return Verdict::Rejected("bit index does not match exported length");
                }
                Verdict::Guilty
            }
            Evidence::NonMonotone { signed_root, lo, hi } => {
                if let Err(v) = self.check_root(accused, round, signed_root) {
                    return v;
                }
                if lo.index >= hi.index {
                    return Verdict::Rejected("indices not increasing");
                }
                // Both reveals bind to the one root: one batch.
                let mut batch = ProofBatch::new(signed_root.root);
                if let Err(v) = Self::check_reveal(&mut batch, lo, true, self.params) {
                    return v;
                }
                if let Err(v) = Self::check_reveal(&mut batch, hi, false, self.params) {
                    return v;
                }
                Verdict::Guilty
            }
            Evidence::FabricatedExport { exported, receiver } => {
                // A's own attestation must stand…
                if let Err(why) = attested_by(exported, accused, *receiver, round, self.keys) {
                    return Verdict::Rejected(why);
                }
                // …while the chain as a whole must fail.
                match exported.verify(*receiver, self.keys) {
                    Err(_) => Verdict::Guilty,
                    Ok(()) => Verdict::Rejected("chain is actually valid"),
                }
            }
        }
    }

    fn check_root(
        &self,
        accused: Asn,
        round: &RoundContext,
        root: &SignedRoot,
    ) -> Result<(), Verdict> {
        if root.signer != accused.principal() {
            return Err(Verdict::Rejected("root signed by someone else"));
        }
        if root.context != round.context_bytes() || root.epoch != round.epoch {
            return Err(Verdict::Rejected("root is for a different round"));
        }
        root.verify(self.keys).map_err(|_| Verdict::Rejected("root signature invalid"))
    }

    fn check_reveal(
        batch: &mut ProofBatch,
        reveal: &BitReveal,
        expected_bit: bool,
        params: PvrParams,
    ) -> Result<(), Verdict> {
        if reveal.index as usize > params.max_path_len {
            return Err(Verdict::Rejected("bit index out of range"));
        }
        let expected_label = if reveal.index == 0 {
            pvr_mht::Label::Slot(crate::session::SLOT_EXIST, 0)
        } else {
            pvr_mht::Label::Slot(crate::session::SLOT_MIN_BITS, reveal.index)
        };
        if reveal.proof.label != expected_label {
            return Err(Verdict::Rejected("reveal label does not match index"));
        }
        if !batch.verify(&reveal.proof) {
            return Err(Verdict::Rejected("reveal proof does not match root"));
        }
        match reveal.bit() {
            Some(b) if b == expected_bit => Ok(()),
            Some(_) => Err(Verdict::Rejected("revealed bit has the wrong value")),
            None => Err(Verdict::Rejected("reveal payload malformed")),
        }
    }
}

/// Whether `a`'s own (top) attestation covers `exported` as this
/// round's export to `receiver`: the route is for the round's prefix and
/// starts at `a`; the attestation is by `a`, targets `receiver`, is over
/// the route's own path and prefix, and its signature verifies. That
/// signature alone proves A announced this route to this receiver,
/// whatever the chain below it says — the one statement of it, for the
/// receiver's check, the auditor and the promise-4 judgment alike.
pub(crate) fn attested_by(
    exported: &SignedRoute,
    a: Asn,
    receiver: Asn,
    round: &RoundContext,
    keys: &KeyStore,
) -> Result<(), &'static str> {
    if exported.route.prefix != round.prefix {
        return Err("exported route is for another prefix");
    }
    if exported.route.path.first_as() != Some(a) {
        return Err("export does not start at the accused");
    }
    let top = exported.chain().newest().ok_or("export carries no attestation")?;
    if top.signer != a
        || top.target != receiver
        || top.path.asns() != exported.route.path.asns()
        || top.prefix != exported.route.prefix
    {
        return Err("top attestation does not cover this export");
    }
    top.verify(keys).map_err(|_| "top attestation signature invalid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;
    use pvr_mht::SignedRoot;

    /// Honest-run sanity: no honestly-produced artifact can be turned
    /// into a Guilty verdict (Accuracy).
    #[test]
    fn accuracy_honest_artifacts_rejected() {
        let bed = Figure1Bed::build(&[2, 3], 21);
        let c = bed.honest_committer();
        let auditor = Auditor::new(&bed.keys, bed.params);

        // Claiming "ignored input" with an honestly-set bit (it is 1, not
        // 0) must be rejected.
        let reveal = c.reveal_bit(2).unwrap();
        let ev = Evidence::IgnoredInput {
            signed_root: c.signed_root().clone(),
            reveal,
            provided: bed.input_of(bed.ns[0]).clone(),
        };
        assert!(matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)));

        // Claiming "export too long" against the honest (shortest) export.
        let reveal = c.reveal_bit(2).unwrap();
        let exported = c.export_route(bed.b).unwrap();
        let ev = Evidence::ExportTooLong {
            signed_root: c.signed_root().clone(),
            reveal,
            exported: exported.clone(),
            receiver: bed.b,
        };
        assert!(matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)));

        // Claiming "fabricated" against a valid chain.
        let ev = Evidence::FabricatedExport { exported: exported.clone(), receiver: bed.b };
        assert!(matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)));

        // …or against the genuine chain under an edited route prefix:
        // the chain no longer verifies, but A attested another prefix.
        let mut route = exported.route.clone();
        route.prefix = pvr_bgp::Prefix::parse("192.0.2.0/24").unwrap();
        let relabeled = SignedRoute::with_chain(route, exported.chain().clone());
        let ev = Evidence::FabricatedExport { exported: relabeled, receiver: bed.b };
        assert!(matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)));
    }

    #[test]
    fn equivocation_judged_guilty() {
        let bed = Figure1Bed::build(&[2], 22);
        let auditor = Auditor::new(&bed.keys, bed.params);
        let a_id = bed.a_identity();
        let r1 = SignedRoot::create(a_id, bed.round.context_bytes(), 1, pvr_crypto::sha256(b"x"));
        let r2 = SignedRoot::create(a_id, bed.round.context_bytes(), 1, pvr_crypto::sha256(b"y"));
        let ev = Evidence::Equivocation(EquivocationEvidence { a: r1, b: r2 });
        assert_eq!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Guilty);
        // Accusing someone else with A's equivocation fails.
        assert!(matches!(auditor.judge(bed.b, &bed.round, &ev), Verdict::Rejected(_)));
    }

    #[test]
    fn wrong_round_rejected() {
        let bed = Figure1Bed::build(&[2, 3], 23);
        let c = bed.honest_committer();
        let auditor = Auditor::new(&bed.keys, bed.params);
        let other_round = RoundContext { prefix: bed.prefix, epoch: 99 };
        let ev = Evidence::NonMonotone {
            signed_root: c.signed_root().clone(),
            lo: c.reveal_bit(2).unwrap(),
            hi: c.reveal_bit(3).unwrap(),
        };
        assert!(matches!(auditor.judge(bed.a, &other_round, &ev), Verdict::Rejected(_)));
    }

    #[test]
    fn honest_vector_cannot_be_framed_as_non_monotone() {
        let bed = Figure1Bed::build(&[2, 4], 24);
        let c = bed.honest_committer();
        let auditor = Auditor::new(&bed.keys, bed.params);
        // Honest bits: 0,1,1,1,… — any (lo=1, hi=0) pair is impossible,
        // so all combinations get rejected.
        for lo in 1..=4u32 {
            for hi in lo + 1..=5u32 {
                let ev = Evidence::NonMonotone {
                    signed_root: c.signed_root().clone(),
                    lo: c.reveal_bit(lo).unwrap(),
                    hi: c.reveal_bit(hi).unwrap(),
                };
                assert!(
                    matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)),
                    "lo={lo} hi={hi}"
                );
            }
        }
    }

    #[test]
    fn suspicion_is_not_evidence() {
        // Type-level documentation: Suspicion has no judge() path.
        let s = Suspicion::MissingReveal { index: 3 };
        assert_eq!(s, Suspicion::MissingReveal { index: 3 });
        assert_ne!(s, Suspicion::MissingDisclosure);
    }

    #[test]
    fn evidence_kinds_are_stable() {
        let bed = Figure1Bed::build(&[2], 25);
        let c = bed.honest_committer();
        let ev = Evidence::NonMonotone {
            signed_root: c.signed_root().clone(),
            lo: c.reveal_bit(1).unwrap(),
            hi: c.reveal_bit(2).unwrap(),
        };
        assert_eq!(ev.kind(), "non-monotone");
    }
}
