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
//! vector, an attestation over a broken chain, two attested exports of
//! unequal length). The fourth holds because an attestation binds the
//! digest of the chain below it (`pvr_bgp::sbgp`): an accuser who
//! breaks an inner attestation of A's genuine export breaks A's
//! attestation with it. That these hand-picked cases are all the cases
//! is not yet shown (ROADMAP item 1's game).

use crate::bits::{export_bit, judged_bit};
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
    /// judged at bit `reveal.index` or below, yet A committed
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
    /// The receiver's case: A exported a route judged at bit
    /// `reveal.index`, yet committed `b_{index} = 0` — the commitment
    /// denies the very route A exported.
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
    /// Promise 4 ("the route you get is no longer than what I tell
    /// anybody else"): A attested a strictly shorter route to `favored`
    /// than to `disfavored` in the same round. Both attestations carry
    /// A's signature, so the pair convinces any third party.
    UnequalExports {
        /// The export A attested to the disfavored receiver (longer).
        to_disfavored: SignedRoute,
        /// The disfavored receiver.
        disfavored: Asn,
        /// The export A attested to the favored receiver (strictly
        /// shorter).
        to_favored: SignedRoute,
        /// The favored receiver.
        favored: Asn,
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
            Evidence::UnequalExports { .. } => "unequal-exports",
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

    /// Judges evidence accusing `accused` for `round`: the only
    /// source of a [`Verdict`].
    pub fn judge(&self, accused: Asn, round: &RoundContext, evidence: &Evidence) -> Verdict {
        match self.rule(accused, round, evidence) {
            Ok(()) => Verdict::Guilty,
            Err(why) => Verdict::Rejected(why),
        }
    }

    /// `Ok` if `evidence` proves `accused` misbehaved in `round`, else
    /// the reason it does not.
    fn rule(
        &self,
        accused: Asn,
        round: &RoundContext,
        evidence: &Evidence,
    ) -> Result<(), &'static str> {
        let k = self.params.max_path_len;
        let attested = |sr, receiver| attested_by(sr, accused, receiver, round, self.keys);
        match evidence {
            Evidence::Equivocation(ev) => match ev.judge(self.keys) {
                Ok(signer) if signer == accused.principal() => Ok(()),
                Ok(_) => Err("conflicting roots signed by someone else"),
                Err(_) => Err("equivocation pair does not verify"),
            },
            Evidence::IgnoredInput { signed_root, reveal, provided } => {
                self.committed(accused, round, signed_root, &[(reveal, false)])?;
                // The provider's chain must verify as delivered to the
                // accused — the accuser cannot fabricate it alone, since
                // it embeds every upstream AS's signature.
                if provided.verify(accused, self.keys).is_err() {
                    return Err("provided route chain invalid");
                }
                if provided.route.prefix != round.prefix {
                    return Err("provided route is for another prefix");
                }
                // Index 0 is the existential bit: any provided route
                // contradicts it. Otherwise the route must be judged at
                // or below the denied bit.
                if reveal.index != 0
                    && judged_bit(provided.route.path_len(), k) > reveal.index as usize
                {
                    return Err("provided route longer than the denied bit");
                }
                Ok(())
            }
            Evidence::ExportTooLong { signed_root, reveal, exported, receiver } => {
                self.committed(accused, round, signed_root, &[(reveal, true)])?;
                attested(exported, *receiver)?;
                if export_bit(&exported.route, k) <= reveal.index as usize {
                    return Err("exported route is not longer than committed min");
                }
                Ok(())
            }
            Evidence::ExportContradictsBits { signed_root, reveal, exported, receiver } => {
                self.committed(accused, round, signed_root, &[(reveal, false)])?;
                attested(exported, *receiver)?;
                // Index 0 = existential bit: any export contradicts it.
                if reveal.index != 0 && export_bit(&exported.route, k) != reveal.index as usize {
                    return Err("bit index does not match exported length");
                }
                Ok(())
            }
            Evidence::NonMonotone { signed_root, lo, hi } => {
                if lo.index >= hi.index {
                    return Err("indices not increasing");
                }
                self.committed(accused, round, signed_root, &[(lo, true), (hi, false)])
            }
            Evidence::FabricatedExport { exported, receiver } => {
                // A's own attestation must stand…
                attested(exported, *receiver)?;
                // …while the chain as a whole must fail.
                match exported.verify(*receiver, self.keys) {
                    Err(_) => Ok(()),
                    Ok(()) => Err("chain is actually valid"),
                }
            }
            Evidence::UnequalExports { to_disfavored, disfavored, to_favored, favored } => {
                attested(to_disfavored, *disfavored)?;
                attested(to_favored, *favored)?;
                if favored == disfavored {
                    return Err("same receiver on both sides");
                }
                if to_favored.route.path_len() >= to_disfavored.route.path_len() {
                    return Err("favored route is not shorter");
                }
                Ok(())
            }
        }
    }

    /// `Ok` if `root` passes the root check for `accused` and `round`
    /// and each reveal, in order, is in range, passes the reveal check
    /// against `root` (one batch: the reveals bind to the one root) and
    /// opens the expected bit.
    fn committed(
        &self,
        accused: Asn,
        round: &RoundContext,
        root: &SignedRoot,
        expected: &[(&BitReveal, bool)],
    ) -> Result<(), &'static str> {
        round.check_root(root, accused, self.keys)?;
        let mut batch = ProofBatch::new(root.root);
        for &(reveal, bit) in expected {
            if reveal.index as usize > self.params.max_path_len {
                return Err("bit index out of range");
            }
            if reveal.check(&mut batch)? != bit {
                return Err("revealed bit has the wrong value");
            }
        }
        Ok(())
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
    exported.chain().verify_newest(keys).map_err(|_| "top attestation signature invalid")
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

    /// ROADMAP item 1's reproducer: the accuser breaks an inner
    /// attestation of A's genuine export itself and calls the result
    /// fabricated. A's attestation binds the chain below it, so it does
    /// not cover the broken chain, and the accusation fails.
    #[test]
    fn a_chain_broken_below_an_honest_export_is_not_evidence() {
        let bed = Figure1Bed::build(&[2, 3], 25);
        let c = bed.honest_committer();
        let auditor = Auditor::new(&bed.keys, bed.params);
        let exported = c.export_route(bed.b).unwrap();
        let mut atts = exported.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let chain = pvr_bgp::AttestationChain::from_attestations(atts);
        let broken = SignedRoute::with_chain(exported.route.clone(), chain);
        assert!(broken.verify(bed.b, &bed.keys).is_err());
        let ev = Evidence::FabricatedExport { exported: broken, receiver: bed.b };
        let verdict = auditor.judge(bed.a, &bed.round, &ev);
        assert!(matches!(verdict, Verdict::Rejected(_)), "{verdict:?}");
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
