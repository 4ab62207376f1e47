//! The PVR round as real network traffic.
//!
//! [`crate::round`] states the round; this module carries its messages
//! over [`pvr_netsim`]: A sends each neighbor its hand-out, neighbors
//! gossip roots among themselves (§3.6: "A's neighbors can gossip
//! about c to ensure that they all have the same view"), and whatever
//! arrived is checked and judged by the same [`Cast::verify`] and
//! [`Cast::judge`] as the direct driver. Loss and partitions now
//! matter: a dropped disclosure degrades to *suspicion* (detection
//! without evidence), and equivocation is caught as soon as any two
//! conflicting roots meet at one gossip participant.

use crate::adversary::Misbehavior;
use crate::evidence::Suspicion;
use crate::round::{Cast, Prover, RoundReport, Transcript};
use crate::session::Disclosure;
use crate::verify::Outcome;
use pvr_bgp::Asn;
use pvr_crypto::encoding::Wire;
use pvr_crypto::keys::KeyStore;
use pvr_mht::SignedRoot;
use pvr_netsim::{Agent, Context, NodeId, Payload, RunLimits, Simulator};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// PVR protocol messages.
#[derive(Clone, Debug)]
pub enum PvrMsg {
    /// A → neighbor: the signed root commitment.
    Root(SignedRoot),
    /// neighbor → neighbor: gossip of a seen root.
    Gossip(SignedRoot),
    /// A → provider: the provider's selective disclosure.
    ToProvider(Disclosure),
    /// A → receiver: the receiver's disclosure (bits + export).
    ToReceiver(Disclosure),
}

pvr_crypto::wire_enum!(PvrMsg {
    0 => Root(root),
    1 => Gossip(root),
    2 => ToProvider(disclosure),
    3 => ToReceiver(disclosure),
});

impl Payload for PvrMsg {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

/// Network A as a simulator agent: sends everything in `on_start`.
pub struct CommitterNode {
    outbox: Vec<(NodeId, PvrMsg)>,
}

impl CommitterNode {
    /// Builds A's agent from its prepared messages, in sending order.
    pub fn new(outbox: Vec<(NodeId, PvrMsg)>) -> CommitterNode {
        CommitterNode { outbox }
    }
}

impl Agent<PvrMsg> for CommitterNode {
    fn on_start(&mut self, ctx: &mut Context<PvrMsg>) {
        for (node, msg) in self.outbox.drain(..) {
            ctx.send(node, msg);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<PvrMsg>, _from: NodeId, _msg: PvrMsg) {
        // A ignores traffic in this one-round protocol.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A neighbor of A on the wire: keeps what it received and gossips
/// roots. It holds no role — the cast checks its share after the run.
pub struct VerifierNode {
    keys: Arc<KeyStore>,
    /// Gossip peers (the other neighbors of A).
    peers: Vec<NodeId>,
    /// Every distinct validly signed root seen (own + gossiped).
    roots: Vec<SignedRoot>,
    /// The disclosure, once it arrived.
    disclosure: Option<Disclosure>,
    /// Everything received, in arrival order.
    transcript: Transcript,
}

impl VerifierNode {
    /// Creates a verifier agent.
    pub fn new(keys: Arc<KeyStore>, peers: Vec<NodeId>) -> VerifierNode {
        VerifierNode {
            keys,
            peers,
            roots: Vec::new(),
            disclosure: None,
            transcript: Transcript::default(),
        }
    }

    /// Stores `root` if its signature holds and it is not already held;
    /// says whether it was stored. Only stored roots are ever forwarded,
    /// so neither a duplicate nor a forgery costs the peers anything.
    fn note_root(&mut self, root: &SignedRoot) -> bool {
        let fresh = !self.roots.contains(root) && root.verify(&self.keys).is_ok();
        if fresh {
            self.roots.push(root.clone());
        }
        fresh
    }
}

impl Agent<PvrMsg> for VerifierNode {
    fn on_message(&mut self, ctx: &mut Context<PvrMsg>, _from: NodeId, msg: PvrMsg) {
        match msg {
            PvrMsg::Root(root) => {
                self.transcript.push("root", root.to_wire());
                // Forward A's claim to all peers, once.
                if self.note_root(&root) {
                    for &p in &self.peers {
                        ctx.send(p, PvrMsg::Gossip(root.clone()));
                    }
                }
            }
            PvrMsg::Gossip(root) => {
                self.transcript.push("gossip", root.to_wire());
                self.note_root(&root);
            }
            PvrMsg::ToProvider(d) | PvrMsg::ToReceiver(d) => {
                self.transcript.push("disclosure", d.to_wire());
                self.disclosure = Some(d);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A fully wired simulated round: the simulator plus node ids.
pub struct SimRound<'a> {
    /// The simulator, ready to run (its stats count the round's
    /// messages and bytes).
    pub sim: Simulator<PvrMsg>,
    /// Node of network A.
    pub a_node: NodeId,
    /// Node of each verifier.
    pub verifier_nodes: BTreeMap<Asn, NodeId>,
    cast: Cast<'a>,
}

impl SimRound<'_> {
    /// Runs to quiescence, then has the cast check what each neighbor
    /// received (a disclosure that never arrived is
    /// [`Suspicion::MissingDisclosure`]) and judge the round.
    pub fn run(&mut self) -> RoundReport {
        self.sim.run(RunLimits::none());
        let mut views = Vec::new();
        let mut outcomes = BTreeMap::new();
        let mut transcripts = BTreeMap::new();
        for n in self.cast.neighbors() {
            let v: &VerifierNode =
                self.sim.node(self.verifier_nodes[&n]).expect("verifier downcast");
            let outcome = match &v.disclosure {
                Some(d) => self.cast.verify(n, d),
                None => Outcome::Suspect(Suspicion::MissingDisclosure),
            };
            views.push((n, &v.roots[..]));
            outcomes.insert(n, outcome);
            transcripts.insert(n, v.transcript.clone());
        }
        self.cast.judge(&views, outcomes, transcripts)
    }
}

/// Wires one round of `cast` into a simulator, honest or Byzantine.
pub fn build_sim_round(
    cast: Cast<'_>,
    behavior: Option<Misbehavior>,
    seed: u64,
    sim_seed: u64,
) -> SimRound<'_> {
    let mut sim: Simulator<PvrMsg> = Simulator::new(sim_seed);
    let keys = Arc::new(cast.keys.clone());
    let prover = Prover::new(&cast, behavior, seed);

    // Verifiers first, numbered in the cast's neighbor order, so that
    // each can name its gossip peers before they exist; then A.
    let n_verifiers = cast.ns.len() + 1;
    let mut verifier_nodes = BTreeMap::new();
    let mut outbox = Vec::new();
    for (i, n) in cast.neighbors().enumerate() {
        let peers = (0..n_verifiers).filter(|&p| p != i).collect();
        let node = sim.add_node(Box::new(VerifierNode::new(Arc::clone(&keys), peers)));
        assert_eq!(node, i, "a fresh simulator numbers nodes from 0");
        verifier_nodes.insert(n, node);
        let (root, disclosure) = prover.hand_out(&cast, n);
        outbox.push((node, PvrMsg::Root(root)));
        outbox.push(if n == cast.b {
            (node, PvrMsg::ToReceiver(disclosure))
        } else {
            (node, PvrMsg::ToProvider(disclosure))
        });
    }
    let a_node = sim.add_node(Box::new(CommitterNode::new(outbox)));

    SimRound { sim, a_node, verifier_nodes, cast }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::run_min_round;
    use crate::Figure1Bed;
    use proptest::prelude::*;

    fn sim_round(bed: &Figure1Bed, behavior: Option<Misbehavior>, sim_seed: u64) -> SimRound<'_> {
        build_sim_round(bed.cast(), behavior, bed.seed, sim_seed)
    }

    #[test]
    fn honest_round_over_network_accepts() {
        let bed = Figure1Bed::build(&[2, 3, 4], 91);
        let mut round = sim_round(&bed, None, 1);
        let report = round.run();
        assert!(report.clean(), "{report:?}");
        assert!(round.sim.stats().delivered > 0);
        assert!(round.sim.stats().bytes_sent > 0);
        // Every view holds what the wire delivered: A's root and
        // disclosure, and one gossiped root per peer.
        for view in report.transcripts.values() {
            assert_eq!(view.received.len(), 2 + bed.ns.len());
        }
    }

    /// What the two transports must agree on, per neighbor: accept, the
    /// evidence kind, or the suspicion.
    fn summary(o: &Outcome) -> String {
        match o {
            Outcome::Accept => "accept".into(),
            Outcome::Accuse(ev) => ev.kind().into(),
            Outcome::Suspect(s) => format!("{s:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The two transports are one protocol: on lossless links the
        /// netsim round's outcomes, equivocation finding and verdicts
        /// are the direct driver's, honest and across the catalog.
        #[test]
        fn netsim_round_equals_direct_round(
            lens in proptest::collection::vec(1usize..=8, 1..=6),
            seed in 0u64..1000,
        ) {
            let bed = Figure1Bed::build(&lens, seed);
            let behaviors = Misbehavior::catalog(bed.ns[0]).into_iter().map(Some).chain([None]);
            for behavior in behaviors {
                let direct = run_min_round(&bed, behavior.clone());
                let wire = sim_round(&bed, behavior.clone(), seed).run();
                let outcomes = |r: &RoundReport| -> Vec<(Asn, String)> {
                    r.outcomes.iter().map(|(&n, o)| (n, summary(o))).collect()
                };
                prop_assert_eq!(outcomes(&wire), outcomes(&direct), "{:?} {:?}", lens, behavior);
                prop_assert_eq!(
                    wire.gossip_evidence.is_some(),
                    direct.gossip_evidence.is_some(),
                    "{:?} {:?}", lens, behavior
                );
                prop_assert_eq!(wire.verdicts, direct.verdicts, "{:?} {:?}", lens, behavior);
            }
        }
    }

    #[test]
    fn dropped_disclosure_becomes_suspicion() {
        let bed = Figure1Bed::build(&[2, 3], 94);
        let mut round = sim_round(&bed, None, 4);
        // Partition A → N1 before starting.
        let n1_node = round.verifier_nodes[&bed.ns[0]];
        round.sim.set_link_down(round.a_node, n1_node, true);
        let report = round.run();
        assert!(matches!(
            report.outcomes[&bed.ns[0]],
            Outcome::Suspect(Suspicion::MissingDisclosure)
        ));
        // Other participants are unaffected.
        assert!(report.outcomes[&bed.ns[1]].is_accept());
        assert!(report.outcomes[&bed.b].is_accept());
    }

    #[test]
    fn gossip_terminates_with_dedup() {
        // The gossip forward-once rule must not generate unbounded
        // traffic: message count stays polynomial in participants.
        let bed = Figure1Bed::build(&[2, 3, 4, 5, 6], 95);
        let mut round = sim_round(&bed, None, 5);
        round.run();
        // 6 verifiers: A sends 12 (root+disclosure each); each verifier
        // forwards its root once to 5 peers = 30 gossip messages.
        let messages = round.sim.stats().delivered;
        assert!(messages <= 12 + 30 + 5, "messages = {messages}");
    }

    #[test]
    fn forged_root_is_never_gossiped() {
        // A root that does not verify is not stored, so it must not be
        // "new" each time it arrives: five copies cost five deliveries
        // and not one forwarded message (or RSA verify at a peer).
        let bed = Figure1Bed::build(&[2, 3, 4], 97);
        let mut quiet = sim_round(&bed, None, 6);
        quiet.run();
        let baseline = quiet.sim.stats().delivered;
        assert_eq!(baseline, 8 + 4 * 3, "A's hand-outs, then each root gossiped once");

        let mut round = sim_round(&bed, None, 6);
        let mut forged = bed.honest_committer().signed_root().clone();
        forged.root = pvr_crypto::sha256(b"forged");
        let target = round.verifier_nodes[&bed.ns[1]];
        for _ in 0..5 {
            round.sim.inject(round.a_node, target, PvrMsg::Root(forged.clone()));
        }
        let report = round.run();
        assert_eq!(round.sim.stats().delivered, baseline + 5);
        assert!(report.clean(), "a forgery frames nobody: {report:?}");
    }

    #[test]
    fn pvr_msg_wire_round_trip() {
        let bed = Figure1Bed::build(&[2], 96);
        let c = bed.honest_committer();
        let msgs = vec![
            PvrMsg::Root(c.signed_root().clone()),
            PvrMsg::Gossip(c.signed_root().clone()),
            PvrMsg::ToProvider(c.disclosure_for_provider(bed.ns[0])),
            PvrMsg::ToReceiver(c.disclosure_for_receiver(bed.b)),
        ];
        for m in msgs {
            let bytes = m.to_wire();
            let back: PvrMsg = pvr_crypto::decode_exact(&bytes).unwrap();
            assert_eq!(back.to_wire(), bytes);
            assert_eq!(m.wire_size(), bytes.len());
        }
    }
}
