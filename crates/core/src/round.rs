//! One PVR round, stated once.
//!
//! A round (§3.2–3.6) is a function of a [`Cast`] — who commits, who
//! verifies and in which order, what each N_i sent, the round and its
//! parameters, the public keys — plus how A behaves and a seed. A
//! commits; [`Prover::hand_out`] is what it gives each neighbor; the
//! neighbors gossip roots; [`Cast::verify`] is each neighbor's check of
//! its own share; [`Cast::judge`] is the gossip cross-check and the
//! third-party [`Auditor`] over every accusation.
//!
//! [`Cast::run`] moves the artifacts by direct calls (the reference
//! semantics and the benchmark target), [`crate::simproto`] as messages
//! over `pvr-netsim` where loss and partitions matter; both record what
//! every participant received (the raw material for the §2.3
//! Confidentiality audit) and fill the same [`RoundReport`]. The cast
//! is borrowed from whoever owns the parts: a [`Figure1Bed`] built by
//! hand, or a [`RouterCast`] lifted from a converged router.

use crate::adversary::{Adversary, Misbehavior};
use crate::evidence::{Auditor, Evidence, Verdict};
use crate::harness::Figure1Bed;
use crate::session::{Committer, Disclosure, PvrParams, RoundContext};
use crate::verify::{cross_check_roots, verify_as_provider, verify_as_receiver, Outcome};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::{Asn, BgpRouter, Prefix};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::Wire;
use pvr_mht::SignedRoot;
use pvr_rfg::{figure1_graph, RouteFlowGraph};
use std::collections::BTreeMap;

/// Everything one round is a function of, apart from A's behavior and
/// the seed of its blinding stream.
#[derive(Clone, Copy)]
pub struct Cast<'a> {
    /// Network A's signing identity (the committer).
    pub identity: &'a Identity,
    /// Network B, the promise receiver.
    pub b: Asn,
    /// The providers N_1..N_k — the promise's scope — in round order.
    pub ns: &'a [Asn],
    /// Which (prefix, epoch) is being decided.
    pub round: &'a RoundContext,
    /// Protocol parameters.
    pub params: PvrParams,
    /// A's route-flow graph.
    pub graph: &'a RouteFlowGraph,
    /// What each N_i advertised to A, with full attestation chains.
    pub inputs: &'a BTreeMap<Asn, Vec<SignedRoute>>,
    /// Public keys of every participant (incl. chain ASes).
    pub keys: &'a KeyStore,
}

impl<'a> Cast<'a> {
    /// Network A.
    pub fn a(&self) -> Asn {
        Asn(self.identity.id() as u32)
    }

    /// A's neighbors in round order: the N_i, then B. Every transport
    /// hands out, numbers nodes and reports in this order.
    pub fn neighbors(&self) -> impl Iterator<Item = Asn> + 'a {
        self.ns.iter().copied().chain([self.b])
    }

    /// Neighbor `me`'s check of the disclosure A handed it: B checks as
    /// the receiver, anyone else as a provider against what it sent A.
    pub fn verify(&self, me: Asn, disclosure: &Disclosure) -> Outcome {
        let (a, keys) = (self.a(), self.keys);
        if me == self.b {
            verify_as_receiver(me, a, self.round, &self.params, disclosure, keys)
        } else {
            let sent = self.inputs.get(&me).map_or(&[][..], Vec::as_slice);
            verify_as_provider(a, self.round, &self.params, sent, disclosure, keys)
        }
    }

    /// A's honest commitment for this round. The blinding stream's
    /// label is pinned (as is the adversary's, in [`Prover::new`]):
    /// every root, proof and transcript byte derives from it.
    pub fn commit(&self, seed: u64) -> Committer {
        Committer::new(self, &mut HmacDrbg::from_u64_labeled(seed, "committer"))
    }

    /// The round's judgment, whatever carried its messages: the §3.6
    /// gossip cross-check over each view (a neighbor and the signed
    /// roots it holds; the first conflict found is filed under that
    /// neighbor), then the auditor's verdict on every piece of evidence.
    pub fn judge(
        &self,
        views: &[(Asn, &[SignedRoot])],
        outcomes: BTreeMap<Asn, Outcome>,
        transcripts: BTreeMap<Asn, Transcript>,
    ) -> RoundReport {
        let gossip =
            views.iter().find_map(|&(n, roots)| Some((n, cross_check_roots(roots, self.keys)?)));
        let auditor = Auditor::new(self.keys, self.params);
        let accusations = gossip
            .iter()
            .map(|(n, ev)| (*n, ev))
            .chain(outcomes.iter().filter_map(|(&n, o)| Some((n, o.evidence()?))));
        let verdicts =
            accusations.map(|(n, ev)| (n, auditor.judge(self.a(), self.round, ev))).collect();
        RoundReport { outcomes, gossip_evidence: gossip.map(|(_, ev)| ev), verdicts, transcripts }
    }

    /// Runs the round by direct calls, honestly or with `behavior`.
    pub fn run(&self, behavior: Option<Misbehavior>, seed: u64) -> RoundReport {
        let prover = Prover::new(self, behavior, seed);
        let handed: BTreeMap<Asn, (SignedRoot, Disclosure)> =
            self.neighbors().map(|n| (n, prover.hand_out(self, n))).collect();
        // §3.6: "The neighbors can then gossip about the hash value".
        // Every neighbor's root reaches every other neighbor, so each
        // view grows by the full set and one cross-check stands for all.
        let gossip: Vec<SignedRoot> = handed.values().map(|(root, _)| root.clone()).collect();
        let gossip_wire: Vec<Vec<u8>> = gossip.iter().map(Wire::to_wire).collect();
        let mut outcomes = BTreeMap::new();
        let mut transcripts = BTreeMap::new();
        for (&n, (root, disclosure)) in &handed {
            let mut view = Transcript::default();
            view.push("root", root.to_wire());
            view.push("disclosure", disclosure.to_wire());
            for seen in &gossip_wire {
                view.push("gossip", seen.clone());
            }
            transcripts.insert(n, view);
            outcomes.insert(n, self.verify(n, disclosure));
        }
        let first = self.neighbors().next().expect("B is always a neighbor");
        self.judge(&[(first, &gossip)], outcomes, transcripts)
    }
}

/// Network A for one round, honest or Byzantine: the one value that
/// answers "what does A give neighbor n".
// One per round and never stored in bulk: boxing the larger variant (an
// adversary holds up to two committers) would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Prover {
    /// A evaluates, commits and discloses as promised.
    Honest(Committer),
    /// A follows one of the catalogued attack strategies.
    Byzantine(Adversary),
}

impl Prover {
    /// A's round state, honest or following `behavior`.
    pub fn new(cast: &Cast, behavior: Option<Misbehavior>, seed: u64) -> Prover {
        match behavior {
            None => Prover::Honest(cast.commit(seed)),
            Some(behavior) => {
                let mut rng = HmacDrbg::from_u64_labeled(seed, "adversary");
                Prover::Byzantine(Adversary::new(cast, behavior, &mut rng))
            }
        }
    }

    /// What A gives neighbor `n`: the signed root it shows `n` and
    /// `n`'s selective disclosure (all bits plus the export for B, the
    /// bit its own route is judged at for a provider).
    pub fn hand_out(&self, cast: &Cast, n: Asn) -> (SignedRoot, Disclosure) {
        match (self, n == cast.b) {
            (Prover::Honest(c), true) => (c.signed_root().clone(), c.disclosure_for_receiver(n)),
            (Prover::Honest(c), false) => (c.signed_root().clone(), c.disclosure_for_provider(n)),
            (Prover::Byzantine(adv), true) => {
                (adv.root_for(n).clone(), adv.disclosure_for_receiver())
            }
            (Prover::Byzantine(adv), false) => {
                (adv.root_for(n).clone(), adv.disclosure_for_provider(n))
            }
        }
    }
}

/// The parts of a cast lifted from a converged signed router: the
/// round runs on the routes BGP + S-BGP actually delivered to A, under
/// the Figure 1 promise (B gets the shortest of the N_i's routes).
pub struct RouterCast<'r> {
    identity: &'r Identity,
    keys: &'r KeyStore,
    b: Asn,
    ns: Vec<Asn>,
    round: RoundContext,
    graph: RouteFlowGraph,
    inputs: BTreeMap<Asn, Vec<SignedRoute>>,
}

impl<'r> RouterCast<'r> {
    /// Lifts `router`'s Adj-RIB-In for `prefix`: the N_i are those of
    /// `candidates` whose attested route it holds, in the given order;
    /// `b` is the named receiver. `None` for a router without a signing
    /// identity (plain mode).
    pub fn lift(
        router: &'r BgpRouter,
        keys: &'r KeyStore,
        candidates: &[Asn],
        prefix: Prefix,
        b: Asn,
        epoch: u64,
    ) -> Option<RouterCast<'r>> {
        let identity = router.identity()?;
        let (ns, inputs): (Vec<Asn>, BTreeMap<Asn, Vec<SignedRoute>>) = candidates
            .iter()
            .filter_map(|&n| Some((n, (n, vec![router.received_chain(n, prefix)?.clone()]))))
            .unzip();
        let (graph, ..) = figure1_graph(&ns, b);
        Some(RouterCast {
            identity,
            keys,
            b,
            ns,
            round: RoundContext { prefix, epoch },
            graph,
            inputs,
        })
    }

    /// The cast.
    pub fn cast(&self) -> Cast<'_> {
        Cast {
            identity: self.identity,
            b: self.b,
            ns: &self.ns,
            round: &self.round,
            params: PvrParams::default(),
            graph: &self.graph,
            inputs: &self.inputs,
            keys: self.keys,
        }
    }
}

/// What one participant received during a round, as raw bytes — the
/// participant's complete *view* of the protocol, used verbatim by the
/// confidentiality auditor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// (channel label, serialized bytes) in arrival order.
    pub received: Vec<(String, Vec<u8>)>,
}

impl Transcript {
    pub(crate) fn push(&mut self, label: &str, bytes: Vec<u8>) {
        self.received.push((label.to_string(), bytes));
    }

    /// Total bytes received (overhead accounting).
    pub fn total_bytes(&self) -> usize {
        self.received.iter().map(|(_, b)| b.len()).sum()
    }
}

/// The result of one round: outcomes, verdicts, transcripts.
#[derive(Debug)]
pub struct RoundReport {
    /// Each verifier's outcome (providers and the receiver).
    pub outcomes: BTreeMap<Asn, Outcome>,
    /// Gossip-level evidence (equivocation), if any.
    pub gossip_evidence: Option<Evidence>,
    /// The auditor's verdict on every piece of evidence produced,
    /// with the accusing network.
    pub verdicts: Vec<(Asn, Verdict)>,
    /// Per-participant views.
    pub transcripts: BTreeMap<Asn, Transcript>,
}

impl RoundReport {
    /// Detection property: did at least one correct neighbor notice?
    pub fn detected(&self) -> bool {
        self.gossip_evidence.is_some() || self.outcomes.values().any(|o| o.detected())
    }

    /// Evidence property: did some neighbor obtain evidence the auditor
    /// upholds?
    pub fn convicted(&self) -> bool {
        self.verdicts.iter().any(|(_, v)| *v == Verdict::Guilty)
    }

    /// Accuracy property (honest runs): nobody detected anything and no
    /// verdict was guilty.
    pub fn clean(&self) -> bool {
        !self.detected() && !self.convicted()
    }
}

/// Runs one round of the §3.3 minimum-operator protocol on a
/// [`Figure1Bed`], honestly or with the given misbehavior.
pub fn run_min_round(bed: &Figure1Bed, behavior: Option<Misbehavior>) -> RoundReport {
    bed.cast().run(behavior, bed.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Suspicion;

    #[test]
    fn honest_round_is_clean() {
        let bed = Figure1Bed::build(&[2, 3, 4], 61);
        let report = run_min_round(&bed, None);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.outcomes.len(), 4);
    }

    #[test]
    fn export_longer_convicted_by_b() {
        let bed = Figure1Bed::build(&[2, 5], 62);
        let report = run_min_round(&bed, Some(Misbehavior::ExportLonger));
        assert!(report.detected());
        assert!(report.convicted());
        let b_outcome = &report.outcomes[&bed.b];
        assert_eq!(b_outcome.evidence().unwrap().kind(), "export-too-long");
    }

    #[test]
    fn suppress_input_convicted_by_victim() {
        let bed = Figure1Bed::build(&[2, 4], 63);
        let victim = bed.ns[0];
        let report = run_min_round(&bed, Some(Misbehavior::SuppressInput { victim }));
        assert!(report.detected());
        assert!(report.convicted());
        assert_eq!(report.outcomes[&victim].evidence().unwrap().kind(), "ignored-input");
        // The other provider is satisfied (bit at length 4 is still 1).
        assert!(report.outcomes[&bed.ns[1]].is_accept());
    }

    #[test]
    fn deny_all_convicted_by_every_provider() {
        let bed = Figure1Bed::build(&[2, 3], 64);
        let report = run_min_round(&bed, Some(Misbehavior::DenyAll));
        for &n in &bed.ns {
            assert_eq!(
                report.outcomes[&n].evidence().map(|e| e.kind()),
                Some("ignored-input"),
                "{n}"
            );
        }
        assert!(report.convicted());
    }

    #[test]
    fn equivocation_caught_only_by_gossip() {
        let bed = Figure1Bed::build(&[2, 4], 65);
        let victim = bed.ns[0];
        let report = run_min_round(&bed, Some(Misbehavior::Equivocate { victim }));
        // Individual checks pass — that is the attack's design…
        // (B sees a consistent suppressed view; providers see the honest
        // view.)
        assert!(report.outcomes.values().all(|o| o.is_accept()), "{:?}", report.outcomes);
        // …but gossip catches the two roots and the auditor convicts.
        assert!(report.gossip_evidence.is_some());
        assert!(report.convicted());
    }

    #[test]
    fn non_monotone_bits_convicted_by_b() {
        let bed = Figure1Bed::build(&[2, 4], 66);
        let report = run_min_round(&bed, Some(Misbehavior::NonMonotoneBits));
        let b_ev = report.outcomes[&bed.b].evidence().map(|e| e.kind());
        assert_eq!(b_ev, Some("non-monotone"));
        assert!(report.convicted());
    }

    #[test]
    fn fabricated_export_convicted_by_b() {
        let bed = Figure1Bed::build(&[3, 4], 67);
        let report = run_min_round(&bed, Some(Misbehavior::FabricateExport));
        let b_ev = report.outcomes[&bed.b].evidence().map(|e| e.kind());
        assert_eq!(b_ev, Some("fabricated-export"));
        assert!(report.convicted());
    }

    #[test]
    fn refuse_reveal_detected_without_evidence() {
        let bed = Figure1Bed::build(&[2, 4], 68);
        let victim = bed.ns[1];
        let report = run_min_round(&bed, Some(Misbehavior::RefuseReveal { victim }));
        assert!(report.detected());
        assert!(!report.convicted(), "omission is not third-party provable");
        assert!(matches!(
            report.outcomes[&victim],
            Outcome::Suspect(Suspicion::MissingReveal { .. })
        ));
    }

    #[test]
    fn corrupt_opening_detected_without_evidence() {
        let bed = Figure1Bed::build(&[2], 69);
        let victim = bed.ns[0];
        let report = run_min_round(&bed, Some(Misbehavior::CorruptOpening { victim }));
        assert!(matches!(report.outcomes[&victim], Outcome::Suspect(Suspicion::BadReveal { .. })));
        assert!(!report.convicted());
    }

    #[test]
    fn all_verdicts_against_adversary_are_guilty() {
        // Every piece of evidence produced by honest verifiers must stand
        // up in front of the auditor (no weak accusations).
        let bed = Figure1Bed::build(&[2, 3, 5], 70);
        for behavior in [
            Misbehavior::ExportLonger,
            Misbehavior::SuppressInput { victim: bed.ns[0] },
            Misbehavior::DenyAll,
            Misbehavior::Equivocate { victim: bed.ns[0] },
            Misbehavior::NonMonotoneBits,
            Misbehavior::FabricateExport,
        ] {
            let report = run_min_round(&bed, Some(behavior.clone()));
            assert!(!report.verdicts.is_empty(), "{behavior:?} produced no evidence");
            for (accuser, v) in &report.verdicts {
                assert_eq!(*v, Verdict::Guilty, "{behavior:?} accused by {accuser}");
            }
        }
    }

    #[test]
    fn transcripts_record_all_views() {
        let bed = Figure1Bed::build(&[2, 3], 71);
        let report = run_min_round(&bed, None);
        for (&n, t) in &report.transcripts {
            assert!(t.total_bytes() > 0, "{n} received nothing");
        }
        // B's transcript includes the exported route, so it is larger
        // than a provider's.
        assert!(
            report.transcripts[&bed.b].total_bytes() > report.transcripts[&bed.ns[0]].total_bytes()
        );
    }
}
