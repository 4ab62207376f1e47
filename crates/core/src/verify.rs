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

use crate::bits::{check_monotone, claimed_min, export_bit, judged_bit};
use crate::evidence::{attested_by, Evidence, Suspicion};
use crate::session::{BitReveal, Disclosure, PvrParams, RoundContext};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::keys::KeyStore;
use pvr_mht::{EquivocationEvidence, ProofBatch, SignedRoot};

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

/// Runs one neighbor's check; a failure it could only suspect ends it.
fn outcome(check: impl FnOnce() -> Result<Outcome, Suspicion>) -> Outcome {
    check().unwrap_or_else(Outcome::Suspect)
}

/// The disclosure's signed root, if it passes the root check.
fn root_of<'a>(
    disclosure: &'a Disclosure,
    a: Asn,
    round: &RoundContext,
    keys: &KeyStore,
) -> Result<&'a SignedRoot, Suspicion> {
    let root = disclosure.signed_root.as_ref().ok_or(Suspicion::BadRootSignature)?;
    round.check_root(root, a, keys).map_err(|_| Suspicion::BadRootSignature)?;
    Ok(root)
}

/// The disclosure's reveal of bit `index`.
fn reveal_at(disclosure: &Disclosure, index: u32) -> Result<&BitReveal, Suspicion> {
    disclosure
        .bit_reveals
        .iter()
        .find(|r| r.index == index)
        .ok_or(Suspicion::MissingReveal { index })
}

/// The bit `reveal` opens, if it passes the reveal check.
fn bit_of(batch: &mut ProofBatch, reveal: &BitReveal) -> Result<bool, Suspicion> {
    reveal.check(batch).map_err(|_| Suspicion::BadReveal { index: reveal.index })
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
/// to A in this round; each is checked at the bit it is judged at
/// ([`judged_bit`]).
pub fn verify_as_provider(
    a: Asn,
    round: &RoundContext,
    params: &PvrParams,
    my_routes: &[SignedRoute],
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    outcome(|| {
        let root = root_of(disclosure, a, round, keys)?;
        let mut batch = ProofBatch::new(root.root);
        for sr in my_routes {
            let index = judged_bit(sr.route.path_len(), params.max_path_len) as u32;
            if index == 0 {
                continue;
            }
            let reveal = reveal_at(disclosure, index)?;
            if !bit_of(&mut batch, reveal)? {
                return Ok(Outcome::Accuse(Evidence::IgnoredInput {
                    signed_root: root.clone(),
                    reveal: reveal.clone(),
                    provided: sr.clone(),
                }));
            }
        }
        Ok(Outcome::Accept)
    })
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
    let Some(provided) = my_routes.first() else { return Outcome::Accept };
    outcome(|| {
        let root = root_of(disclosure, a, round, keys)?;
        let reveal = reveal_at(disclosure, 0)?;
        Ok(if bit_of(&mut ProofBatch::new(root.root), reveal)? {
            Outcome::Accept
        } else {
            Outcome::Accuse(Evidence::IgnoredInput {
                signed_root: root.clone(),
                reveal: reveal.clone(),
                provided: provided.clone(),
            })
        })
    })
}

/// Receiver-side verification of the minimum-operator protocol (§3.3).
/// `me` is B; the disclosure must contain all bits plus the export,
/// which is compared with the claimed minimum at the bit it is judged
/// at ([`export_bit`]).
pub fn verify_as_receiver(
    me: Asn,
    a: Asn,
    round: &RoundContext,
    params: &PvrParams,
    disclosure: &Disclosure,
    keys: &KeyStore,
) -> Outcome {
    outcome(|| {
        let root = root_of(disclosure, a, round, keys)?;
        // Collect and validate all k bits.
        let mut batch = ProofBatch::new(root.root);
        let mut reveals = Vec::with_capacity(params.max_path_len);
        let mut bits = Vec::with_capacity(params.max_path_len);
        for i in 1..=params.max_path_len as u32 {
            let reveal = reveal_at(disclosure, i)?;
            bits.push(bit_of(&mut batch, reveal)?);
            reveals.push(reveal);
        }
        let at = |i: usize| reveals[i - 1].clone();
        // Monotonicity (§3.3 check b): transferable evidence on failure.
        if let Err((lo, hi)) = check_monotone(&bits) {
            return Ok(Outcome::Accuse(Evidence::NonMonotone {
                signed_root: root.clone(),
                lo: at(lo),
                hi: at(hi),
            }));
        }
        let claimed = claimed_min(&bits);
        let Some(sr) = &disclosure.exported else {
            // A committed that a route exists but exported nothing.
            // Omission is detectable but not third-party-provable
            // (§2.3 Detection without Evidence).
            return match claimed {
                None => Ok(Outcome::Accept),
                Some(m) => Err(Suspicion::WithheldExport { index: m as u32 }),
            };
        };
        if let Some(outcome) = export_chain_fault(sr, me, a, round, keys) {
            return Ok(outcome);
        }
        let exported_at = export_bit(&sr.route, params.max_path_len);
        if sr.route.path.first_as() != Some(a)
            || sr.route.prefix != round.prefix
            || exported_at == 0
        {
            return Err(Suspicion::BadExportChain);
        }
        let (signed_root, exported, receiver) = (root.clone(), sr.clone(), me);
        Ok(match claimed {
            Some(m) if exported_at == m => Outcome::Accept,
            Some(m) if exported_at > m => Outcome::Accuse(Evidence::ExportTooLong {
                signed_root,
                reveal: at(m),
                exported,
                receiver,
            }),
            // No bit set, or the export's own bit is 0.
            _ => Outcome::Accuse(Evidence::ExportContradictsBits {
                signed_root,
                reveal: at(exported_at),
                exported,
                receiver,
            }),
        })
    })
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
    outcome(|| {
        let root = root_of(disclosure, a, round, keys)?;
        let reveal = reveal_at(disclosure, 0)?;
        let bit = bit_of(&mut ProofBatch::new(root.root), reveal)?;
        let Some(sr) = &disclosure.exported else {
            return if bit {
                Err(Suspicion::WithheldExport { index: 0 })
            } else {
                Ok(Outcome::Accept)
            };
        };
        if let Some(outcome) = export_chain_fault(sr, me, a, round, keys) {
            return Ok(outcome);
        }
        Ok(if bit {
            Outcome::Accept
        } else {
            // Exported a (valid) route while committing "no route".
            Outcome::Accuse(Evidence::ExportContradictsBits {
                signed_root: root.clone(),
                reveal: reveal.clone(),
                exported: sr.clone(),
                receiver: me,
            })
        })
    })
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
