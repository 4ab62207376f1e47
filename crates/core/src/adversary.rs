//! Byzantine committers.
//!
//! The paper's threat model (§3): "We adopt a conservative threat model
//! and assume that an unknown subset of the networks is Byzantine and
//! can behave arbitrarily." This module implements the concrete attack
//! strategies the protocol must catch, each mapped to the check that
//! catches it:
//!
//! | misbehavior            | caught by             | via                      |
//! |------------------------|-----------------------|--------------------------|
//! | `ExportLonger`         | B                     | `ExportTooLong` evidence |
//! | `SuppressInput`        | the victim N_i        | `IgnoredInput` evidence  |
//! | `DenyAll`              | every providing N_i   | `IgnoredInput` evidence  |
//! | `Equivocate`           | gossip (any neighbor) | `Equivocation` evidence  |
//! | `NonMonotoneBits`      | B                     | `NonMonotone` evidence   |
//! | `FabricateExport`      | B                     | `FabricatedExport`       |
//! | `RefuseReveal`         | the victim N_i        | suspicion (no evidence)  |
//! | `CorruptOpening`       | the victim N_i        | suspicion (no evidence)  |
//!
//! Colluding networks share state instantaneously per the threat model;
//! collusion scenarios are exercised in the integration tests.

use crate::round::Cast;
use crate::session::{Committer, Disclosure};
use pvr_bgp::sbgp::{Attestation, SignedRoute};
use pvr_bgp::Asn;
use pvr_crypto::drbg::HmacDrbg;
use pvr_mht::SignedRoot;
use std::collections::BTreeMap;

/// The attack strategy a Byzantine A executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Misbehavior {
    /// Commit truthful bits but export the *longest* input to B
    /// (economic lie: steer traffic to a preferred upstream).
    ExportLonger,
    /// Pretend `victim`'s route was never received: bits, evaluation,
    /// and export all computed without it.
    SuppressInput {
        /// The provider whose route is suppressed.
        victim: Asn,
    },
    /// Pretend no route was received at all.
    DenyAll,
    /// Show B a view with `victim` suppressed while showing the honest
    /// view to the providers — each individual check passes; only the
    /// §3.6 gossip catches the two signed roots.
    Equivocate {
        /// The provider suppressed in B's view.
        victim: Asn,
    },
    /// Commit a bit vector that is not monotone (a malformed lie).
    NonMonotoneBits,
    /// Export a route whose inner attestation chain is forged.
    FabricateExport,
    /// Run honestly but refuse to reveal the victim's bit.
    RefuseReveal {
        /// The provider who receives no reveal.
        victim: Asn,
    },
    /// Run honestly but corrupt the opening sent to the victim.
    CorruptOpening {
        /// The provider who receives a corrupted reveal.
        victim: Asn,
    },
}

/// Compile-time completeness guard for [`Misbehavior::catalog`]: adding
/// a variant is a build error here until the catalog learns about it,
/// so a new attack can never silently skip the detection-matrix tests.
const _: fn(&Misbehavior) = |m| match m {
    Misbehavior::ExportLonger
    | Misbehavior::SuppressInput { .. }
    | Misbehavior::DenyAll
    | Misbehavior::Equivocate { .. }
    | Misbehavior::NonMonotoneBits
    | Misbehavior::FabricateExport
    | Misbehavior::RefuseReveal { .. }
    | Misbehavior::CorruptOpening { .. } => {}
};

impl Misbehavior {
    /// Every strategy in the catalog, with `victim` as the target of the
    /// victim-parameterized variants. For the targeted suppressions to
    /// count as promise violations, `victim` should hold the unique
    /// minimum route (see `properties.rs` for why suppressing a longer
    /// route violates nothing).
    pub fn catalog(victim: Asn) -> Vec<Misbehavior> {
        vec![
            Misbehavior::ExportLonger,
            Misbehavior::SuppressInput { victim },
            Misbehavior::DenyAll,
            Misbehavior::Equivocate { victim },
            Misbehavior::NonMonotoneBits,
            Misbehavior::FabricateExport,
            Misbehavior::RefuseReveal { victim },
            Misbehavior::CorruptOpening { victim },
        ]
    }

    /// A short stable label for tables and campaign rows.
    pub fn label(&self) -> &'static str {
        match self {
            Misbehavior::ExportLonger => "export-longer",
            Misbehavior::SuppressInput { .. } => "suppress-input",
            Misbehavior::DenyAll => "deny-all",
            Misbehavior::Equivocate { .. } => "equivocate",
            Misbehavior::NonMonotoneBits => "non-monotone-bits",
            Misbehavior::FabricateExport => "fabricate-export",
            Misbehavior::RefuseReveal { .. } => "refuse-reveal",
            Misbehavior::CorruptOpening { .. } => "corrupt-opening",
        }
    }
}

/// A Byzantine committer: produces per-neighbor roots and disclosures
/// according to its strategy.
pub struct Adversary {
    behavior: Misbehavior,
    /// The view shown to the receiver B.
    main: Committer,
    /// The view shown to providers (differs only under `Equivocate`).
    provider_view: Option<Committer>,
    /// Ground-truth inputs (for indexing reveals even when the doctored
    /// view dropped them).
    true_inputs: BTreeMap<Asn, Vec<SignedRoute>>,
    receiver: Asn,
}

impl Adversary {
    /// Builds the adversary's state for one round of `cast`.
    pub fn new(cast: &Cast, behavior: Misbehavior, rng: &mut HmacDrbg) -> Adversary {
        // A's commitment as if exactly `inputs` had been received.
        let mut view = |inputs: &BTreeMap<Asn, Vec<SignedRoute>>| {
            Committer::new(&Cast { inputs, ..*cast }, rng)
        };
        let without = |victim: &Asn| {
            let mut doctored = cast.inputs.clone();
            doctored.remove(victim);
            doctored
        };
        let (main, provider_view) = match &behavior {
            Misbehavior::ExportLonger
            | Misbehavior::RefuseReveal { .. }
            | Misbehavior::CorruptOpening { .. }
            | Misbehavior::FabricateExport => (view(cast.inputs), None),
            Misbehavior::SuppressInput { victim } => (view(&without(victim)), None),
            Misbehavior::DenyAll => (view(&BTreeMap::new()), None),
            Misbehavior::Equivocate { victim } => {
                let for_b = view(&without(victim));
                (for_b, Some(view(cast.inputs)))
            }
            Misbehavior::NonMonotoneBits => {
                // Commit a hand-crafted non-monotone vector: truthful
                // evaluation, lying bits (1 at the true min, then 0s).
                let honest = view(cast.inputs);
                let mut bits = honest.bits().to_vec();
                if let Some(first_one) = bits.iter().position(|&b| b) {
                    for b in bits.iter_mut().skip(first_one + 1) {
                        *b = false;
                    }
                } else if bits.len() >= 2 {
                    bits[0] = true; // fabricate 1,0,…
                }
                (honest.with_bits(bits, rng), None)
            }
        };
        let true_inputs = cast.inputs.clone();
        Adversary { behavior, main, provider_view, true_inputs, receiver: cast.b }
    }

    /// The strategy in play.
    pub fn behavior(&self) -> &Misbehavior {
        &self.behavior
    }

    /// The signed root shown to neighbor `n`.
    pub fn root_for(&self, n: Asn) -> &SignedRoot {
        if n == self.receiver {
            self.main.signed_root()
        } else {
            self.provider_view
                .as_ref()
                .map(|c| c.signed_root())
                .unwrap_or_else(|| self.main.signed_root())
        }
    }

    /// The view backing neighbor `n`'s disclosures.
    fn view_for(&self, n: Asn) -> &Committer {
        if n == self.receiver {
            &self.main
        } else {
            self.provider_view.as_ref().unwrap_or(&self.main)
        }
    }

    /// The disclosure sent to provider `n`.
    pub fn disclosure_for_provider(&self, n: Asn) -> Disclosure {
        let view = self.view_for(n);
        match &self.behavior {
            Misbehavior::RefuseReveal { victim } if *victim == n => {
                Disclosure { signed_root: Some(view.signed_root().clone()), ..Default::default() }
            }
            Misbehavior::CorruptOpening { victim } if *victim == n => {
                let mut d = self.reveal_true_lengths(view, n);
                for r in &mut d.bit_reveals {
                    // Flip the committed bit byte: the proof no longer
                    // verifies, which the victim reports as suspicion.
                    if !r.proof.payload.is_empty() {
                        r.proof.payload[0] ^= 1;
                    }
                }
                d
            }
            // Views that dropped the provider's route still must answer
            // its query: reveal the bit at the *true* route length.
            Misbehavior::SuppressInput { .. }
            | Misbehavior::DenyAll
            | Misbehavior::Equivocate { .. } => self.reveal_true_lengths(view, n),
            _ => view.disclosure_for_provider(n),
        }
    }

    /// The disclosure sent to the receiver.
    pub fn disclosure_for_receiver(&self) -> Disclosure {
        let b = self.receiver;
        match &self.behavior {
            Misbehavior::ExportLonger => {
                let mut d = self.main.disclosure_for_receiver(b);
                // Swap the export for the longest input's route.
                let longest = self
                    .true_inputs
                    .iter()
                    .flat_map(|(&n, srs)| srs.iter().map(move |sr| (n, sr.route.path_len())))
                    .max_by_key(|&(_, len)| len)
                    .map(|(n, _)| n);
                d.exported = longest.and_then(|n| self.main.export_input_route(n, b));
                d
            }
            Misbehavior::FabricateExport => {
                let mut d = self.main.disclosure_for_receiver(b);
                // Forge a short route "via" the first provider with a
                // fabricated inner chain: only A's own attestation is
                // genuine.
                if let Some((&n, _)) = self.true_inputs.iter().next() {
                    let a = Asn(self.main.identity().id() as u32);
                    let mut fake = pvr_bgp::Route::originate(self.main.round().prefix);
                    fake.path = fake.path.prepend(n).prepend(a);
                    let top = Attestation::create(self.main.identity(), fake.prefix, &fake.path, b);
                    // Inner attestation forged: self-signed with A's key
                    // instead of n's (signature check will fail for n).
                    let mut inner = top.clone();
                    inner.signer = n;
                    inner.path = fake.path.clone(); // wrong path too
                    let chain = pvr_bgp::AttestationChain::from_attestations(vec![inner, top]);
                    d.exported = Some(SignedRoute::with_chain(fake, chain));
                }
                d
            }
            _ => self.main.disclosure_for_receiver(b),
        }
    }

    /// Reveals, from `view`, the bits at `n`'s *true* route lengths.
    fn reveal_true_lengths(&self, view: &Committer, n: Asn) -> Disclosure {
        view.disclosure_for_routes(self.true_inputs.get(&n).map_or(&[], Vec::as_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;

    fn adversary(bed: &Figure1Bed, behavior: Misbehavior) -> Adversary {
        let mut rng = HmacDrbg::from_u64_labeled(bed.seed, "adversary");
        Adversary::new(&bed.cast(), behavior, &mut rng)
    }

    #[test]
    fn export_longer_swaps_export() {
        let bed = Figure1Bed::build(&[2, 5], 51);
        let adv = adversary(&bed, Misbehavior::ExportLonger);
        let d = adv.disclosure_for_receiver();
        // Exported the length-5 route (+1 for A's prepend).
        assert_eq!(d.exported.unwrap().route.path_len(), 6);
    }

    #[test]
    fn suppress_input_zeroes_victims_bit() {
        let bed = Figure1Bed::build(&[2, 4], 52);
        let victim = bed.ns[0];
        let adv = adversary(&bed, Misbehavior::SuppressInput { victim });
        let d = adv.disclosure_for_provider(victim);
        assert_eq!(d.bit_reveals.len(), 1);
        assert_eq!(d.bit_reveals[0].index, 2);
        assert_eq!(d.bit_reveals[0].bit(), Some(false), "victim's bit denied");
        // The other provider's bit is honest.
        let d2 = adv.disclosure_for_provider(bed.ns[1]);
        assert_eq!(d2.bit_reveals[0].bit(), Some(true));
    }

    #[test]
    fn equivocate_shows_two_roots() {
        let bed = Figure1Bed::build(&[2, 4], 53);
        let victim = bed.ns[0];
        let adv = adversary(&bed, Misbehavior::Equivocate { victim });
        assert_ne!(adv.root_for(bed.b).root, adv.root_for(victim).root);
        assert_eq!(adv.root_for(victim).root, adv.root_for(bed.ns[1]).root);
        // Both roots are genuinely signed (that is the point).
        assert!(adv.root_for(bed.b).verify(&bed.keys).is_ok());
        assert!(adv.root_for(victim).verify(&bed.keys).is_ok());
    }

    #[test]
    fn refuse_reveal_gives_empty_disclosure() {
        let bed = Figure1Bed::build(&[2, 4], 54);
        let victim = bed.ns[1];
        let adv = adversary(&bed, Misbehavior::RefuseReveal { victim });
        assert!(adv.disclosure_for_provider(victim).bit_reveals.is_empty());
        assert!(!adv.disclosure_for_provider(bed.ns[0]).bit_reveals.is_empty());
    }

    #[test]
    fn corrupt_opening_breaks_proof() {
        let bed = Figure1Bed::build(&[2], 55);
        let victim = bed.ns[0];
        let adv = adversary(&bed, Misbehavior::CorruptOpening { victim });
        let d = adv.disclosure_for_provider(victim);
        let root = adv.root_for(victim);
        assert!(!d.bit_reveals[0].proof.verify(&root.root));
    }

    #[test]
    fn deny_all_zeroes_everything() {
        let bed = Figure1Bed::build(&[2, 3], 56);
        let adv = adversary(&bed, Misbehavior::DenyAll);
        for &n in &bed.ns {
            let d = adv.disclosure_for_provider(n);
            assert_eq!(d.bit_reveals[0].bit(), Some(false), "{n}");
        }
        assert!(adv.disclosure_for_receiver().exported.is_none());
    }

    #[test]
    fn fabricate_export_has_bad_inner_chain() {
        let bed = Figure1Bed::build(&[3, 4], 57);
        let adv = adversary(&bed, Misbehavior::FabricateExport);
        let d = adv.disclosure_for_receiver();
        let sr = d.exported.unwrap();
        assert!(sr.verify(bed.b, &bed.keys).is_err(), "chain must be forged");
        // But A's own top attestation is valid.
        let top = sr.chain().newest().unwrap();
        assert!(top.verify(&bed.keys).is_ok());
    }
}
