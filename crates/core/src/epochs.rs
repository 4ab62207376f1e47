//! Multi-round PVR sessions: epochs, withdrawals, and replay defense.
//!
//! BGP is a stream of decisions, not a single one. A PVR session
//! advances an epoch per decision change for a prefix: each epoch gets
//! its own commitment round, withdrawals are rounds with empty inputs
//! (all-zero bits, no export — verifiable like any other round), and
//! verifiers reject stale or replayed artifacts by tracking the highest
//! epoch seen per (signer, context). This addresses the freshness gap
//! the single-round protocol leaves open (a §4-style deployment
//! concern the paper does not elaborate).

use crate::round::Cast;
use crate::session::{Committer, RoundContext};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::drbg::HmacDrbg;
use pvr_mht::SignedRoot;
use std::collections::BTreeMap;

/// The committing side of a long-lived session for one prefix: a cast
/// whose epoch advances and whose inputs change round by round.
pub struct PvrSession<'a> {
    cast: Cast<'a>,
    epoch: u64,
    rng: HmacDrbg,
}

impl<'a> PvrSession<'a> {
    /// Opens a session for `cast`'s participants, graph and prefix.
    /// Epochs start at 1 on the first round.
    pub fn new(cast: Cast<'a>, seed: u64) -> PvrSession<'a> {
        PvrSession { cast, epoch: 0, rng: HmacDrbg::from_u64_labeled(seed, "pvr-session") }
    }

    /// The current epoch (0 before the first round).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runs the next round over the current inputs (empty inputs model a
    /// withdrawal) and returns its committer.
    pub fn next_round(&mut self, inputs: BTreeMap<Asn, Vec<SignedRoute>>) -> Committer {
        self.epoch += 1;
        let round = RoundContext { prefix: self.cast.round.prefix, epoch: self.epoch };
        Committer::new(&Cast { round: &round, inputs: &inputs, ..self.cast }, &mut self.rng)
    }
}

/// Verifier-side freshness tracking: the highest epoch accepted per
/// (signer, context). Replayed or stale artifacts are rejected before
/// any cryptographic work.
#[derive(Clone, Debug, Default)]
pub struct EpochTracker {
    latest: BTreeMap<(u64, Vec<u8>), u64>,
}

/// Freshness classification of an incoming signed root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Freshness {
    /// Strictly newer than anything seen: accept and advance.
    Fresh,
    /// Exactly the epoch already accepted (gossip duplicates are fine).
    Current,
    /// Older than the accepted epoch: replay, reject.
    Stale,
}

impl EpochTracker {
    /// An empty tracker.
    pub fn new() -> EpochTracker {
        EpochTracker::default()
    }

    /// Classifies `root` and advances the tracker on `Fresh`.
    pub fn observe(&mut self, root: &SignedRoot) -> Freshness {
        let key = (root.signer, root.context.clone());
        match self.latest.get(&key) {
            None => {
                self.latest.insert(key, root.epoch);
                Freshness::Fresh
            }
            Some(&seen) if root.epoch > seen => {
                self.latest.insert(key, root.epoch);
                Freshness::Fresh
            }
            Some(&seen) if root.epoch == seen => Freshness::Current,
            Some(_) => Freshness::Stale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;
    use crate::verify::{verify_as_provider, verify_as_receiver};

    fn session_for(bed: &Figure1Bed) -> PvrSession<'_> {
        PvrSession::new(bed.cast(), bed.seed)
    }

    #[test]
    fn epochs_advance_and_rounds_verify() {
        let bed = Figure1Bed::build(&[2, 4], 401);
        let mut session = session_for(&bed);

        // Epoch 1: both routes present.
        let c1 = session.next_round(bed.inputs.clone());
        assert_eq!(session.epoch(), 1);
        let round1 = c1.round().clone();
        let d = c1.disclosure_for_receiver(bed.b);
        let o = verify_as_receiver(bed.b, bed.a, &round1, &bed.params, &d, &bed.keys);
        assert!(o.is_accept());

        // Epoch 2: N1 withdrew; min moves to 4.
        let mut inputs2 = bed.inputs.clone();
        inputs2.remove(&bed.ns[0]);
        let c2 = session.next_round(inputs2.clone());
        assert_eq!(session.epoch(), 2);
        let round2 = c2.round().clone();
        let d = c2.disclosure_for_receiver(bed.b);
        let o = verify_as_receiver(bed.b, bed.a, &round2, &bed.params, &d, &bed.keys);
        assert!(o.is_accept());
        let exported = c2.export_route(bed.b).unwrap();
        assert_eq!(exported.route.path_len(), 5, "now via N2");

        // Epoch 3: total withdrawal — all-zero bits, no export.
        let c3 = session.next_round(BTreeMap::new());
        let round3 = c3.round().clone();
        let d = c3.disclosure_for_receiver(bed.b);
        assert!(d.exported.is_none());
        let o = verify_as_receiver(bed.b, bed.a, &round3, &bed.params, &d, &bed.keys);
        assert!(o.is_accept(), "{o:?}");
    }

    #[test]
    fn cross_epoch_replay_rejected() {
        // An epoch-1 disclosure presented for the epoch-2 round fails
        // the root check (wrong epoch in the signed context).
        let bed = Figure1Bed::build(&[2, 4], 402);
        let mut session = session_for(&bed);
        let c1 = session.next_round(bed.inputs.clone());
        let stale = c1.disclosure_for_receiver(bed.b);
        let c2 = session.next_round(bed.inputs.clone());
        let o = verify_as_receiver(bed.b, bed.a, c2.round(), &bed.params, &stale, &bed.keys);
        assert!(!o.is_accept(), "replay must fail");
        // Same for providers.
        let stale_p = c1.disclosure_for_provider(bed.ns[0]);
        let o = verify_as_provider(
            bed.a,
            c2.round(),
            &bed.params,
            &bed.inputs[&bed.ns[0]],
            &stale_p,
            &bed.keys,
        );
        assert!(!o.is_accept());
    }

    #[test]
    fn tracker_classifies_freshness() {
        let bed = Figure1Bed::build(&[2], 403);
        let mut session = session_for(&bed);
        let c1 = session.next_round(bed.inputs.clone());
        let c2 = session.next_round(bed.inputs.clone());
        let mut tracker = EpochTracker::new();
        assert_eq!(tracker.observe(c1.signed_root()), Freshness::Fresh);
        assert_eq!(tracker.observe(c1.signed_root()), Freshness::Current);
        assert_eq!(tracker.observe(c2.signed_root()), Freshness::Fresh);
        assert_eq!(tracker.observe(c1.signed_root()), Freshness::Stale);
    }

    #[test]
    fn tracker_separates_contexts() {
        // Epochs are per (signer, context): different prefixes do not
        // interfere.
        let bed = Figure1Bed::build(&[2], 404);
        let mut s1 = session_for(&bed);
        let c1 = s1.next_round(bed.inputs.clone());
        let other = RoundContext {
            prefix: pvr_bgp::Prefix::parse("192.168.0.0/16").unwrap(),
            ..bed.round.clone()
        };
        let mut s2 = PvrSession::new(Cast { round: &other, ..bed.cast() }, bed.seed + 1);
        let c2 = s2.next_round(BTreeMap::new());
        let mut tracker = EpochTracker::new();
        assert_eq!(tracker.observe(c1.signed_root()), Freshness::Fresh);
        assert_eq!(tracker.observe(c2.signed_root()), Freshness::Fresh);
        assert_eq!(tracker.observe(c1.signed_root()), Freshness::Current);
    }

    #[test]
    fn distinct_epochs_produce_distinct_roots() {
        // Even with identical inputs the blinding stream advances, so
        // roots differ across epochs (no cross-epoch correlation).
        let bed = Figure1Bed::build(&[2, 3], 405);
        let mut session = session_for(&bed);
        let c1 = session.next_round(bed.inputs.clone());
        let c2 = session.next_round(bed.inputs.clone());
        assert_ne!(c1.signed_root().root, c2.signed_root().root);
    }
}
