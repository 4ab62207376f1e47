//! Neighbor-side verification.
//!
//! Implements the checks of §3.2 and §3.3:
//!
//! * each provider N_i "checks the commitment to verify that this bit
//!   is 1 (clearly, the chosen route cannot be longer than N_i's
//!   route)" — condition 3 (and condition 2 for the existential case);
//! * the receiver B "verifies that a) if at least one bit is set to 1,
//!   then it must have received a properly signed route, and b) if some
//!   b_i is set to 1, then all the b_j, j > i, must also be set to 1";
//!   B additionally cross-checks the exported route's length against
//!   the committed minimum — a mismatch in either direction yields
//!   transferable evidence;
//! * all neighbors gossip signed roots and detect equivocation.

use crate::evidence::{attested_by, Evidence, Suspicion};
use crate::session::{BitReveal, Disclosure, PvrParams, RoundContext};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::keys::KeyStore;
use pvr_mht::{EquivocationEvidence, Label, ProofBatch, SignedRoot};
use std::collections::BTreeMap;

/// The result of one neighbor's verification.
// `Accuse`/`Suspect` carry full evidence and dwarf `Accept`; boxing them
// would break the nested `Outcome::Accuse(Evidence::...)` patterns used
// throughout (box patterns are unstable), and outcomes are transient.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Everything checked out.
    Accept,
    /// Transferable evidence of misbehavior was obtained.
    Accuse(Evidence),
    /// Something is wrong but not third-party-provable.
    Suspect(Suspicion),
}

impl Outcome {
    /// True for [`Outcome::Accept`].
    pub fn is_accept(&self) -> bool {
        matches!(self, Outcome::Accept)
    }

    /// True if the verifier noticed anything wrong (accuse or suspect) —
    /// the paper's Detection property counts both.
    pub fn detected(&self) -> bool {
        !self.is_accept()
    }

    /// The evidence, if any.
    pub fn evidence(&self) -> Option<&Evidence> {
        match self {
            Outcome::Accuse(e) => Some(e),
            _ => None,
        }
    }
}

/// Validates the signed root in a disclosure.
fn check_root<'a>(
    disclosure: &'a Disclosure,
    a: Asn,
    round: &RoundContext,
    keys: &KeyStore,
) -> Result<&'a SignedRoot, Suspicion> {
    let root = disclosure.signed_root.as_ref().ok_or(Suspicion::BadRootSignature)?;
    if root.signer != a.principal()
        || root.context != round.context_bytes()
        || root.epoch != round.epoch
        || root.verify(keys).is_err()
    {
        return Err(Suspicion::BadRootSignature);
    }
    Ok(root)
}

/// Validates one bit reveal against the root `batch` is bound to (one
/// batch per signed root: the reveals of a disclosure share most of
/// their tree nodes); returns the bit.
fn check_reveal(batch: &mut ProofBatch, reveal: &BitReveal) -> Result<bool, Suspicion> {
    let expected_label = if reveal.index == 0 {
        Label::Slot(crate::session::SLOT_EXIST, 0)
    } else {
        Label::Slot(crate::session::SLOT_MIN_BITS, reveal.index)
    };
    if reveal.proof.label != expected_label || !batch.verify(&reveal.proof) {
        return Err(Suspicion::BadReveal { index: reveal.index });
    }
    reveal.bit().ok_or(Suspicion::BadReveal { index: reveal.index })
}

/// §3.3 check a ("properly signed route"): the outcome, if the export's
/// chain does not verify — transferable evidence if A's own attestation
/// stands (A vouched for a fabricated route), mere suspicion otherwise.
fn export_chain_fault(
    sr: &SignedRoute,
    me: Asn,
    a: Asn,
    round: &RoundContext,
    keys: &KeyStore,
) -> Option<Outcome> {
    sr.verify(me, keys).err()?;
    Some(match attested_by(sr, a, me, round, keys) {
        Ok(()) => {
            Outcome::Accuse(Evidence::FabricatedExport { exported: sr.clone(), receiver: me })
        }
        Err(_) => Outcome::Suspect(Suspicion::BadExportChain),
    })
}

/// Provider-side verification of the minimum-operator protocol (§3.3
/// condition 3). `my_routes` are the attested routes this provider sent
/// to A in this round.
pub fn verify_as_provider(
    a: Asn,
    round: &RoundContext,
    params: &PvrParams,
    my_routes: &[SignedRoute],
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    let root = match check_root(disclosure, a, round, keys) {
        Ok(r) => r,
        Err(s) => return Outcome::Suspect(s),
    };
    let mut batch = ProofBatch::new(root.root);
    let reveals: BTreeMap<u32, &BitReveal> =
        disclosure.bit_reveals.iter().map(|r| (r.index, r)).collect();
    for sr in my_routes {
        let len = sr.route.path_len().min(params.max_path_len) as u32;
        if len == 0 {
            continue;
        }
        let reveal = match reveals.get(&len) {
            Some(r) => *r,
            None => return Outcome::Suspect(Suspicion::MissingReveal { index: len }),
        };
        match check_reveal(&mut batch, reveal) {
            Err(s) => return Outcome::Suspect(s),
            Ok(true) => {}
            Ok(false) => {
                return Outcome::Accuse(Evidence::IgnoredInput {
                    signed_root: root.clone(),
                    reveal: reveal.clone(),
                    provided: sr.clone(),
                });
            }
        }
    }
    Outcome::Accept
}

/// Provider-side verification of the existential protocol (§3.2
/// condition 2): "if N_i has provided a route to A, then A has revealed
/// b and p to N_i, and b = 1".
pub fn verify_as_provider_existential(
    a: Asn,
    round: &RoundContext,
    my_routes: &[SignedRoute],
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    if my_routes.is_empty() {
        return Outcome::Accept;
    }
    let root = match check_root(disclosure, a, round, keys) {
        Ok(r) => r,
        Err(s) => return Outcome::Suspect(s),
    };
    let reveal = match disclosure.bit_reveals.iter().find(|r| r.index == 0) {
        Some(r) => r,
        None => return Outcome::Suspect(Suspicion::MissingReveal { index: 0 }),
    };
    match check_reveal(&mut ProofBatch::new(root.root), reveal) {
        Err(s) => Outcome::Suspect(s),
        Ok(true) => Outcome::Accept,
        Ok(false) => Outcome::Accuse(Evidence::IgnoredInput {
            signed_root: root.clone(),
            reveal: reveal.clone(),
            provided: my_routes[0].clone(),
        }),
    }
}

/// Receiver-side verification of the minimum-operator protocol (§3.3).
/// `me` is B; the disclosure must contain all bits plus the export.
pub fn verify_as_receiver(
    me: Asn,
    a: Asn,
    round: &RoundContext,
    params: &PvrParams,
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    let root = match check_root(disclosure, a, round, keys) {
        Ok(r) => r,
        Err(s) => return Outcome::Suspect(s),
    };
    // Collect and validate all k bits.
    let mut batch = ProofBatch::new(root.root);
    let reveals: BTreeMap<u32, &BitReveal> =
        disclosure.bit_reveals.iter().map(|r| (r.index, r)).collect();
    let mut bits = Vec::with_capacity(params.max_path_len);
    for i in 1..=params.max_path_len as u32 {
        let reveal = match reveals.get(&i) {
            Some(r) => *r,
            None => return Outcome::Suspect(Suspicion::MissingReveal { index: i }),
        };
        match check_reveal(&mut batch, reveal) {
            Ok(b) => bits.push(b),
            Err(s) => return Outcome::Suspect(s),
        }
    }
    // Monotonicity (§3.3 check b): transferable evidence on failure.
    if let Err((lo, hi)) = crate::bits::check_monotone(&bits) {
        return Outcome::Accuse(Evidence::NonMonotone {
            signed_root: root.clone(),
            lo: reveals[&(lo as u32)].clone(),
            hi: reveals[&(hi as u32)].clone(),
        });
    }
    let claimed = crate::bits::claimed_min(&bits);

    match (&disclosure.exported, claimed) {
        (None, None) => Outcome::Accept,
        // A committed that a route exists but exported nothing. Omission
        // is detectable but not third-party-provable (§2.3 Detection
        // without Evidence).
        (None, Some(m)) => Outcome::Suspect(Suspicion::WithheldExport { index: m as u32 }),
        (Some(sr), claimed) => {
            if let Some(outcome) = export_chain_fault(sr, me, a, round, keys) {
                return outcome;
            }
            if sr.route.path.first_as() != Some(a) || sr.route.prefix != round.prefix {
                return Outcome::Suspect(Suspicion::BadExportChain);
            }
            let core_len = sr.route.path_len() - 1;
            if core_len == 0 || core_len > params.max_path_len {
                return Outcome::Suspect(Suspicion::BadExportChain);
            }
            match claimed {
                None => Outcome::Accuse(Evidence::ExportContradictsBits {
                    signed_root: root.clone(),
                    reveal: reveals[&(core_len as u32)].clone(),
                    exported: sr.clone(),
                    receiver: me,
                }),
                Some(m) if core_len > m => Outcome::Accuse(Evidence::ExportTooLong {
                    signed_root: root.clone(),
                    reveal: reveals[&(m as u32)].clone(),
                    exported: sr.clone(),
                    receiver: me,
                }),
                Some(m) if core_len < m => Outcome::Accuse(Evidence::ExportContradictsBits {
                    signed_root: root.clone(),
                    reveal: reveals[&(core_len as u32)].clone(),
                    exported: sr.clone(),
                    receiver: me,
                }),
                Some(_) => Outcome::Accept,
            }
        }
    }
}

/// Receiver-side verification of the existential protocol (§3.2
/// condition 1): "B verifies that either b = 0 or it has received a
/// properly signed route".
pub fn verify_as_receiver_existential(
    me: Asn,
    a: Asn,
    round: &RoundContext,
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    let root = match check_root(disclosure, a, round, keys) {
        Ok(r) => r,
        Err(s) => return Outcome::Suspect(s),
    };
    let reveal = match disclosure.bit_reveals.iter().find(|r| r.index == 0) {
        Some(r) => r,
        None => return Outcome::Suspect(Suspicion::MissingReveal { index: 0 }),
    };
    let bit = match check_reveal(&mut ProofBatch::new(root.root), reveal) {
        Ok(b) => b,
        Err(s) => return Outcome::Suspect(s),
    };
    match (&disclosure.exported, bit) {
        (None, false) => Outcome::Accept,
        (None, true) => Outcome::Suspect(Suspicion::WithheldExport { index: 0 }),
        (Some(sr), bit) => {
            if let Some(outcome) = export_chain_fault(sr, me, a, round, keys) {
                return outcome;
            }
            if bit {
                Outcome::Accept
            } else {
                // Exported a (valid) route while committing "no route".
                Outcome::Accuse(Evidence::ExportContradictsBits {
                    signed_root: root.clone(),
                    reveal: reveal.clone(),
                    exported: sr.clone(),
                    receiver: me,
                })
            }
        }
    }
}

/// Gossip cross-check (§3.6): each neighbor shares the signed root it
/// received; any two valid-but-conflicting roots are equivocation
/// evidence. Returns the first conflict found, pairs taken in slice
/// order. Each root's signature is checked at most once, when a pair
/// first needs it.
pub fn cross_check_roots(roots: &[SignedRoot], keys: &KeyStore) -> Option<Evidence> {
    let mut valid: Vec<Option<bool>> = vec![None; roots.len()];
    let mut is_valid = |i: usize| *valid[i].get_or_insert_with(|| roots[i].verify(keys).is_ok());
    for (i, a) in roots.iter().enumerate() {
        if !is_valid(i) {
            continue;
        }
        for (j, b) in roots.iter().enumerate().skip(i + 1) {
            if !is_valid(j) {
                continue;
            }
            if let Some(ev) = EquivocationEvidence::try_from_pair(a, b) {
                return Some(Evidence::Equivocation(ev));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;

    #[test]
    fn honest_round_accepted_by_everyone() {
        let bed = Figure1Bed::build(&[2, 3, 4], 31);
        let c = bed.honest_committer();
        for &n in &bed.ns {
            let d = c.disclosure_for_provider(n);
            let o =
                verify_as_provider(bed.a, &bed.round, &bed.params, &bed.inputs[&n], &d, &bed.keys);
            assert!(o.is_accept(), "provider {n}: {o:?}");
        }
        let d = c.disclosure_for_receiver(bed.b);
        let o = verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &d, &bed.keys);
        assert!(o.is_accept(), "receiver: {o:?}");
    }

    #[test]
    fn honest_existential_accepted() {
        let bed = Figure1Bed::build(&[3, 2], 32);
        let c = bed.honest_committer();
        let dp = c.existential_disclosure_for_provider();
        for &n in &bed.ns {
            let o =
                verify_as_provider_existential(bed.a, &bed.round, &bed.inputs[&n], &dp, &bed.keys);
            assert!(o.is_accept(), "{n}: {o:?}");
        }
        let dr = c.existential_disclosure_for_receiver(bed.b);
        let o = verify_as_receiver_existential(bed.b, bed.a, &bed.round, &dr, &bed.keys);
        assert!(o.is_accept(), "{o:?}");
    }

    #[test]
    fn missing_root_suspected() {
        let bed = Figure1Bed::build(&[2], 33);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.signed_root = None;
        let o = verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &d, &bed.keys);
        assert!(matches!(o, Outcome::Suspect(Suspicion::BadRootSignature)));
    }

    #[test]
    fn wrong_epoch_root_suspected() {
        let bed = Figure1Bed::build(&[2], 34);
        let c = bed.honest_committer();
        let d = c.disclosure_for_receiver(bed.b);
        let stale = RoundContext { prefix: bed.prefix, epoch: 2 };
        let o = verify_as_receiver(bed.b, bed.a, &stale, &bed.params, &d, &bed.keys);
        assert!(matches!(o, Outcome::Suspect(Suspicion::BadRootSignature)));
    }

    #[test]
    fn missing_bit_suspected() {
        let bed = Figure1Bed::build(&[2, 3], 35);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.bit_reveals.retain(|r| r.index != 5);
        let o = verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &d, &bed.keys);
        assert!(matches!(o, Outcome::Suspect(Suspicion::MissingReveal { index: 5 })));
    }

    #[test]
    fn tampered_reveal_suspected() {
        let bed = Figure1Bed::build(&[2, 3], 36);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_receiver(bed.b);
        d.bit_reveals[0].proof.payload[0] ^= 1;
        let o = verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &d, &bed.keys);
        assert!(matches!(o, Outcome::Suspect(Suspicion::BadReveal { .. })));
    }

    #[test]
    fn provider_missing_reveal_suspected() {
        let bed = Figure1Bed::build(&[2, 3], 37);
        let c = bed.honest_committer();
        let mut d = c.disclosure_for_provider(bed.ns[0]);
        d.bit_reveals.clear();
        let o = verify_as_provider(
            bed.a,
            &bed.round,
            &bed.params,
            &bed.inputs[&bed.ns[0]],
            &d,
            &bed.keys,
        );
        assert!(matches!(o, Outcome::Suspect(Suspicion::MissingReveal { index: 2 })));
    }

    #[test]
    fn cross_check_detects_equivocation() {
        let bed = Figure1Bed::build(&[2], 38);
        let a_id = bed.a_identity();
        let r1 = pvr_mht::SignedRoot::create(
            a_id,
            bed.round.context_bytes(),
            1,
            pvr_crypto::sha256(b"1"),
        );
        let r2 = pvr_mht::SignedRoot::create(
            a_id,
            bed.round.context_bytes(),
            1,
            pvr_crypto::sha256(b"2"),
        );
        let ev = cross_check_roots(&[r1.clone(), r2], &bed.keys).expect("conflict");
        assert_eq!(ev.kind(), "equivocation");
        // Identical roots do not conflict.
        assert!(cross_check_roots(&[r1.clone(), r1], &bed.keys).is_none());
    }

    #[test]
    fn cross_check_ignores_invalid_signatures() {
        // A root with a corrupted signature cannot be used to frame A.
        let bed = Figure1Bed::build(&[2], 39);
        let a_id = bed.a_identity();
        let r1 = pvr_mht::SignedRoot::create(
            a_id,
            bed.round.context_bytes(),
            1,
            pvr_crypto::sha256(b"1"),
        );
        let mut forged = r1.clone();
        forged.root = pvr_crypto::sha256(b"forged");
        assert!(cross_check_roots(&[r1, forged], &bed.keys).is_none());
    }

    #[test]
    fn cross_check_skips_invalid_root_ahead_of_equivocating_pair() {
        let bed = Figure1Bed::build(&[2], 40);
        let a_id = bed.a_identity();
        let root = |tag: &[u8]| {
            pvr_mht::SignedRoot::create(a_id, bed.round.context_bytes(), 1, pvr_crypto::sha256(tag))
        };
        let (r1, r2, r3) = (root(b"1"), root(b"2"), root(b"3"));
        // Would conflict with every root behind it if its signature held.
        let mut forged = r1.clone();
        forged.root = pvr_crypto::sha256(b"forged");
        // The first valid conflicting pair in slice order is (r1, r2):
        // not a pair with the forged root, not (r1, r1), not (r1, r3).
        let gossip = [forged.clone(), r1.clone(), r1.clone(), r2.clone(), forged, r3];
        match cross_check_roots(&gossip, &bed.keys) {
            Some(Evidence::Equivocation(ev)) => {
                assert_eq!((ev.a, ev.b), (r1, r2));
            }
            other => panic!("expected equivocation evidence, got {other:?}"),
        }
    }
}
