//! Ablations of the paper's design choices (printed by experiment E11).
//!
//! The §3.3 bit-vector construction looks roundabout — why not simply
//! commit to each received route's length and open them all to B? This
//! module implements that **naive variant** so the privacy difference
//! is measurable rather than asserted: the naive protocol verifies the
//! same promise but leaks the *full multiset of path lengths* (and
//! which neighbor supplied which) to B, while the paper's construction
//! reveals only the minimum B already learns from the route itself.
//!
//! Experiment E11 in the harness compares leakage and message sizes.

use crate::session::RoundContext;
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::commit::{commit, verify as verify_commitment, Commitment, Opening};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::Wire;
use pvr_mht::SignedRoot;
use std::collections::BTreeMap;

/// Commitment tag for naive per-route length commitments.
const TAG: &[u8] = b"pvr.ablation.naive-len";

/// The naive committer: one commitment per (provider, route length).
pub struct NaiveCommitter {
    round: RoundContext,
    commitments: BTreeMap<Asn, Commitment>,
    openings: BTreeMap<Asn, Opening>,
    exported: Option<SignedRoute>,
    signed_root: SignedRoot,
}

impl NaiveCommitter {
    /// Commits to every provider's route length individually.
    pub fn new(
        identity: &Identity,
        round: RoundContext,
        inputs: &BTreeMap<Asn, Vec<SignedRoute>>,
        receiver: Asn,
        rng: &mut HmacDrbg,
    ) -> NaiveCommitter {
        let mut commitments = BTreeMap::new();
        let mut openings = BTreeMap::new();
        for (&n, srs) in inputs {
            if let Some(sr) = srs.first() {
                let len = sr.route.path_len() as u32;
                let (c, o) = commit(TAG, &len.to_be_bytes(), rng);
                commitments.insert(n, c);
                openings.insert(n, o);
            }
        }
        // "Root" = hash over all commitments, signed (flat, no tree).
        let mut buf = Vec::new();
        for (n, c) in &commitments {
            n.encode(&mut buf);
            c.encode(&mut buf);
        }
        let root = pvr_crypto::sha256(&buf);
        let signed_root = SignedRoot::create(identity, round.context_bytes(), round.epoch, root);

        // Export the true minimum, chain-extended.
        let exported = inputs
            .values()
            .filter_map(|srs| srs.first())
            .min_by_key(|sr| (sr.route.path_len(), sr.route.path.asns().to_vec()))
            .map(|sr| {
                let out = sr.route.clone().propagated_by(Asn(identity.id() as u32));
                SignedRoute::extend(sr, identity, out, receiver)
            });
        NaiveCommitter { round, commitments, openings, exported, signed_root }
    }

    /// The signed flat-commitment root.
    pub fn signed_root(&self) -> &SignedRoot {
        &self.signed_root
    }

    /// The naive disclosure to B: **all** openings — this is the leak.
    pub fn disclosure_for_receiver(&self) -> NaiveDisclosure {
        NaiveDisclosure {
            signed_root: self.signed_root.clone(),
            commitments: self.commitments.clone(),
            openings: self.openings.clone(),
            exported: self.exported.clone(),
        }
    }

    /// The round context.
    pub fn round(&self) -> &RoundContext {
        &self.round
    }
}

/// The naive receiver disclosure.
#[derive(Clone, Debug)]
pub struct NaiveDisclosure {
    /// Signed flat root.
    pub signed_root: SignedRoot,
    /// Per-provider commitments.
    pub commitments: BTreeMap<Asn, Commitment>,
    /// Openings for every provider — the leak.
    pub openings: BTreeMap<Asn, Opening>,
    /// The exported route.
    pub exported: Option<SignedRoute>,
}

impl NaiveDisclosure {
    /// What B learns beyond the exported route: the complete
    /// (provider → path length) map. With the paper's construction this
    /// function could not exist.
    pub fn leaked_lengths(&self, keys: &KeyStore) -> Option<BTreeMap<Asn, u32>> {
        self.signed_root.verify(keys).ok()?;
        let mut out = BTreeMap::new();
        for (&n, opening) in &self.openings {
            let c = self.commitments.get(&n)?;
            if !verify_commitment(TAG, c, opening) {
                return None;
            }
            let bytes: [u8; 4] = opening.value.as_slice().try_into().ok()?;
            out.insert(n, u32::from_be_bytes(bytes));
        }
        Some(out)
    }

    /// B's promise check in the naive protocol (works, but at the
    /// privacy cost above).
    pub fn verify_min(&self, keys: &KeyStore) -> bool {
        let Some(lengths) = self.leaked_lengths(keys) else {
            return false;
        };
        match (&self.exported, lengths.values().min()) {
            (None, None) => true,
            (Some(sr), Some(&min)) => sr.route.path_len() as u32 == min + 1,
            _ => false,
        }
    }

    /// Serialized size for the E11 comparison.
    pub fn byte_size(&self) -> usize {
        let mut buf = Vec::new();
        self.signed_root.encode(&mut buf);
        for (n, c) in &self.commitments {
            n.encode(&mut buf);
            c.encode(&mut buf);
        }
        for (n, o) in &self.openings {
            n.encode(&mut buf);
            o.encode(&mut buf);
        }
        self.exported.encode(&mut buf);
        buf.len()
    }
}

/// Summary of the ablation comparison for one scenario.
#[derive(Debug)]
pub struct AblationReport {
    /// Provider path lengths B learns under the naive protocol.
    pub naive_leak: BTreeMap<Asn, u32>,
    /// What B learns under the paper's protocol: only the minimum.
    pub paper_reveals_min_only: usize,
    /// Naive receiver-disclosure bytes.
    pub naive_bytes: usize,
    /// Paper receiver-disclosure bytes.
    pub paper_bytes: usize,
}

/// Runs both protocols over the same bed and reports the difference.
pub fn compare_naive_vs_paper(bed: &crate::harness::Figure1Bed) -> AblationReport {
    let mut rng = HmacDrbg::from_u64_labeled(bed.seed, "ablation-naive");
    let naive =
        NaiveCommitter::new(bed.a_identity(), bed.round.clone(), &bed.inputs, bed.b, &mut rng);
    let nd = naive.disclosure_for_receiver();
    assert!(nd.verify_min(&bed.keys), "naive protocol must still verify");
    let naive_leak = nd.leaked_lengths(&bed.keys).expect("openings verify");

    let c = bed.honest_committer();
    let pd = c.disclosure_for_receiver(bed.b);
    let paper_bytes = pd.encoded_len();
    let min = bed.true_min();

    AblationReport {
        naive_leak,
        paper_reveals_min_only: min,
        naive_bytes: nd.byte_size(),
        paper_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidential::redact;
    use crate::harness::Figure1Bed;
    use crate::round::run_min_round;

    #[test]
    fn naive_protocol_verifies_the_promise() {
        let bed = Figure1Bed::build(&[2, 3, 5], 301);
        let report = compare_naive_vs_paper(&bed);
        assert_eq!(report.paper_reveals_min_only, 2);
    }

    #[test]
    fn naive_protocol_leaks_every_length() {
        // The ablation's point: B reconstructs the exact multiset of
        // provider route lengths — business intelligence the paper's
        // design withholds.
        let bed = Figure1Bed::build(&[2, 3, 5], 302);
        let report = compare_naive_vs_paper(&bed);
        let lens: Vec<u32> = report.naive_leak.values().copied().collect();
        assert_eq!(lens, vec![2, 3, 5]);
    }

    #[test]
    fn paper_protocol_does_not_leak_lengths() {
        // Counterfactual over the non-minimal lengths: B's opened
        // content is identical, so B provably cannot reconstruct them.
        let bed_a = Figure1Bed::build(&[2, 3, 5], 303);
        let bed_b = Figure1Bed::build(&[2, 4, 9], 303);
        let ra = run_min_round(&bed_a, None);
        let rb = run_min_round(&bed_b, None);
        assert_eq!(redact(&ra.transcripts[&bed_a.b]), redact(&rb.transcripts[&bed_b.b]));
        // The naive protocol distinguishes the same two worlds.
        let na = compare_naive_vs_paper(&bed_a);
        let nb = compare_naive_vs_paper(&bed_b);
        assert_ne!(na.naive_leak, nb.naive_leak);
    }

    #[test]
    fn naive_tampered_opening_rejected() {
        let bed = Figure1Bed::build(&[2, 3], 304);
        let mut rng = HmacDrbg::from_u64_labeled(bed.seed, "ablation-naive");
        let naive =
            NaiveCommitter::new(bed.a_identity(), bed.round.clone(), &bed.inputs, bed.b, &mut rng);
        let mut nd = naive.disclosure_for_receiver();
        let first = *nd.openings.keys().next().unwrap();
        nd.openings.get_mut(&first).unwrap().value = 9u32.to_be_bytes().to_vec();
        assert!(nd.leaked_lengths(&bed.keys).is_none());
        assert!(!nd.verify_min(&bed.keys));
    }

    #[test]
    fn byte_sizes_reported() {
        let bed = Figure1Bed::build(&[2, 3, 4, 5], 305);
        let report = compare_naive_vs_paper(&bed);
        assert!(report.naive_bytes > 0);
        assert!(report.paper_bytes > 0);
    }
}
