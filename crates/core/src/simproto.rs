//! The PVR round as real network traffic.
//!
//! [`crate::protocol`] gives the reference semantics with direct calls;
//! this module runs the same four phases as messages over
//! [`pvr_netsim`]: A publishes its signed root(s) and disclosures,
//! neighbors gossip roots among themselves (§3.6: "A's neighbors can
//! gossip about c to ensure that they all have the same view"), and
//! each neighbor verifies asynchronously. Loss and partitions now
//! matter: a dropped disclosure degrades to *suspicion* (detection
//! without evidence), and equivocation is caught as soon as any two
//! conflicting roots meet at one gossip participant.

use crate::adversary::{Adversary, Misbehavior};
use crate::evidence::{Evidence, Suspicion};
use crate::harness::Figure1Bed;
use crate::session::{Disclosure, PvrParams, RoundContext};
use crate::verify::{verify_as_provider, verify_as_receiver, Outcome};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::Asn;
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::encoding::Wire;
use pvr_crypto::keys::KeyStore;
use pvr_mht::{EquivocationEvidence, SignedRoot};
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
    /// (neighbor node, root, disclosure, is_receiver) per neighbor.
    outbox: Vec<(NodeId, SignedRoot, Disclosure, bool)>,
}

impl CommitterNode {
    /// Builds A's agent from prepared artifacts.
    pub fn new(outbox: Vec<(NodeId, SignedRoot, Disclosure, bool)>) -> CommitterNode {
        CommitterNode { outbox }
    }
}

impl Agent<PvrMsg> for CommitterNode {
    fn on_start(&mut self, ctx: &mut Context<PvrMsg>) {
        for (node, root, disclosure, is_receiver) in self.outbox.drain(..) {
            ctx.send(node, PvrMsg::Root(root));
            let msg = if is_receiver {
                PvrMsg::ToReceiver(disclosure)
            } else {
                PvrMsg::ToProvider(disclosure)
            };
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

/// The verifier's role in the round.
pub enum VerifierRole {
    /// One of the N_i, holding what it advertised to A.
    Provider {
        /// The routes this provider sent to A this round.
        my_routes: Vec<SignedRoute>,
    },
    /// The receiver B.
    Receiver,
}

/// A neighbor of A: stores roots, gossips, verifies its disclosure.
pub struct VerifierNode {
    me: Asn,
    a: Asn,
    round: RoundContext,
    params: PvrParams,
    keys: Arc<KeyStore>,
    role: VerifierRole,
    /// Gossip peers (the other neighbors of A).
    peers: Vec<NodeId>,
    /// Every valid signed root seen (own + gossiped).
    seen_roots: Vec<SignedRoot>,
    /// Verification outcome once the disclosure arrived.
    outcome: Option<Outcome>,
    /// Equivocation evidence from gossip, if found.
    equivocation: Option<Evidence>,
}

impl VerifierNode {
    /// Creates a verifier agent.
    pub fn new(
        me: Asn,
        a: Asn,
        round: RoundContext,
        params: PvrParams,
        keys: Arc<KeyStore>,
        role: VerifierRole,
        peers: Vec<NodeId>,
    ) -> VerifierNode {
        VerifierNode {
            me,
            a,
            round,
            params,
            keys,
            role,
            peers,
            seen_roots: Vec::new(),
            outcome: None,
            equivocation: None,
        }
    }

    /// The verification outcome; `None` means the disclosure never
    /// arrived (callers should treat that as
    /// [`Suspicion::MissingDisclosure`]).
    pub fn outcome(&self) -> Option<&Outcome> {
        self.outcome.as_ref()
    }

    /// The effective outcome, mapping a missing disclosure to suspicion.
    pub fn effective_outcome(&self) -> Outcome {
        match &self.outcome {
            Some(o) => o.clone(),
            None => Outcome::Suspect(Suspicion::MissingDisclosure),
        }
    }

    /// Equivocation evidence gathered via gossip.
    pub fn equivocation(&self) -> Option<&Evidence> {
        self.equivocation.as_ref()
    }

    fn note_root(&mut self, root: SignedRoot) {
        if root.verify(&self.keys).is_err() {
            return;
        }
        for seen in &self.seen_roots {
            if let Some(ev) = EquivocationEvidence::try_from_pair(seen, &root) {
                self.equivocation.get_or_insert(Evidence::Equivocation(ev));
            }
        }
        // Deduplicate to keep gossip storms bounded.
        if !self.seen_roots.contains(&root) {
            self.seen_roots.push(root);
        }
    }
}

impl Agent<PvrMsg> for VerifierNode {
    fn on_message(&mut self, ctx: &mut Context<PvrMsg>, _from: NodeId, msg: PvrMsg) {
        match msg {
            PvrMsg::Root(root) => {
                // Forward A's claim to all peers, then record it.
                let is_new = !self.seen_roots.contains(&root);
                self.note_root(root.clone());
                if is_new {
                    for &p in &self.peers.clone() {
                        ctx.send(p, PvrMsg::Gossip(root.clone()));
                    }
                }
            }
            PvrMsg::Gossip(root) => {
                self.note_root(root);
            }
            PvrMsg::ToProvider(d) => {
                if let VerifierRole::Provider { my_routes } = &self.role {
                    self.outcome = Some(verify_as_provider(
                        self.a,
                        &self.round,
                        &self.params,
                        my_routes,
                        &d,
                        &self.keys,
                    ));
                }
            }
            PvrMsg::ToReceiver(d) => {
                if matches!(self.role, VerifierRole::Receiver) {
                    self.outcome = Some(verify_as_receiver(
                        self.me,
                        self.a,
                        &self.round,
                        &self.params,
                        &d,
                        &self.keys,
                    ));
                }
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
pub struct SimRound {
    /// The simulator, ready to run.
    pub sim: Simulator<PvrMsg>,
    /// Node of network A.
    pub a_node: NodeId,
    /// Node of each verifier.
    pub verifier_nodes: BTreeMap<Asn, NodeId>,
}

impl SimRound {
    /// Runs to quiescence and collects results.
    pub fn run(&mut self) -> SimRoundReport {
        self.sim.run(RunLimits::none());
        let mut outcomes = BTreeMap::new();
        let mut equivocation = None;
        for (&asn, &node) in &self.verifier_nodes {
            let v: &VerifierNode = self.sim.node(node).expect("verifier downcast");
            outcomes.insert(asn, v.effective_outcome());
            if equivocation.is_none() {
                equivocation = v.equivocation().cloned();
            }
        }
        SimRoundReport {
            outcomes,
            equivocation,
            messages: self.sim.stats().delivered,
            bytes: self.sim.stats().bytes_sent,
        }
    }
}

/// Results of a simulated round.
#[derive(Debug)]
pub struct SimRoundReport {
    /// Each verifier's (effective) outcome.
    pub outcomes: BTreeMap<Asn, Outcome>,
    /// First equivocation evidence found by any gossip participant.
    pub equivocation: Option<Evidence>,
    /// Messages delivered during the round.
    pub messages: u64,
    /// Bytes put on the wire.
    pub bytes: u64,
}

impl SimRoundReport {
    /// The paper's Detection property over the whole round.
    pub fn detected(&self) -> bool {
        self.equivocation.is_some() || self.outcomes.values().any(|o| o.detected())
    }
}

/// Builds a simulated round from a [`Figure1Bed`], honest or Byzantine.
pub fn build_sim_round(bed: &Figure1Bed, behavior: Option<Misbehavior>, sim_seed: u64) -> SimRound {
    let mut sim: Simulator<PvrMsg> = Simulator::new(sim_seed);
    let keys = Arc::new(bed.keys.clone());

    // Create verifier agents first (so A knows their node ids), then A.
    // Node ids: providers in order, then B, then A.
    let mut verifier_nodes = BTreeMap::new();
    let n_verifiers = bed.ns.len() + 1;
    let planned_ids: BTreeMap<Asn, NodeId> =
        bed.ns.iter().copied().chain([bed.b]).enumerate().map(|(i, asn)| (asn, i)).collect();
    for (i, &asn) in bed.ns.iter().chain([&bed.b]).enumerate() {
        let peers: Vec<NodeId> = (0..n_verifiers).filter(|&p| p != i).collect();
        let role = if asn == bed.b {
            VerifierRole::Receiver
        } else {
            VerifierRole::Provider { my_routes: bed.inputs[&asn].clone() }
        };
        let node = sim.add_node(Box::new(VerifierNode::new(
            asn,
            bed.a,
            bed.round.clone(),
            bed.params,
            Arc::clone(&keys),
            role,
            peers,
        )));
        assert_eq!(node, planned_ids[&asn]);
        verifier_nodes.insert(asn, node);
    }

    // Prepare A's artifacts.
    let outbox = match behavior {
        None => {
            let c = bed.honest_committer();
            bed.ns
                .iter()
                .map(|&n| {
                    (
                        verifier_nodes[&n],
                        c.signed_root().clone(),
                        c.disclosure_for_provider(n),
                        false,
                    )
                })
                .chain([(
                    verifier_nodes[&bed.b],
                    c.signed_root().clone(),
                    c.disclosure_for_receiver(bed.b),
                    true,
                )])
                .collect()
        }
        Some(behavior) => {
            let mut rng = HmacDrbg::from_u64_labeled(bed.seed, "adversary");
            let adv = Adversary::new(
                bed.a_identity(),
                bed.round.clone(),
                bed.params,
                bed.graph.clone(),
                bed.inputs.clone(),
                &bed.ns,
                bed.b,
                behavior,
                &mut rng,
            );
            bed.ns
                .iter()
                .map(|&n| {
                    (
                        verifier_nodes[&n],
                        adv.root_for(n).clone(),
                        adv.disclosure_for_provider(n),
                        false,
                    )
                })
                .chain([(
                    verifier_nodes[&bed.b],
                    adv.root_for(bed.b).clone(),
                    adv.disclosure_for_receiver(),
                    true,
                )])
                .collect()
        }
    };
    let a_node = sim.add_node(Box::new(CommitterNode::new(outbox)));

    SimRound { sim, a_node, verifier_nodes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_round_over_network_accepts() {
        let bed = Figure1Bed::build(&[2, 3, 4], 91);
        let mut round = build_sim_round(&bed, None, 1);
        let report = round.run();
        assert!(!report.detected(), "{report:?}");
        assert!(report.messages > 0);
        assert!(report.bytes > 0);
    }

    #[test]
    fn equivocation_detected_via_gossip_traffic() {
        let bed = Figure1Bed::build(&[2, 4], 92);
        let victim = bed.ns[0];
        let mut round = build_sim_round(&bed, Some(Misbehavior::Equivocate { victim }), 2);
        let report = round.run();
        // Individual verifications pass; the gossip layer catches it.
        assert!(report.outcomes.values().all(|o| o.is_accept()));
        assert!(report.equivocation.is_some());
        assert!(report.detected());
    }

    #[test]
    fn suppressed_input_detected_over_network() {
        let bed = Figure1Bed::build(&[2, 4], 93);
        let victim = bed.ns[0];
        let mut round = build_sim_round(&bed, Some(Misbehavior::SuppressInput { victim }), 3);
        let report = round.run();
        assert_eq!(report.outcomes[&victim].evidence().map(|e| e.kind()), Some("ignored-input"));
    }

    #[test]
    fn dropped_disclosure_becomes_suspicion() {
        let bed = Figure1Bed::build(&[2, 3], 94);
        let mut round = build_sim_round(&bed, None, 4);
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
        let mut round = build_sim_round(&bed, None, 5);
        let report = round.run();
        // 6 verifiers: A sends 12 (root+disclosure each); each verifier
        // forwards its root once to 5 peers = 30 gossip messages.
        assert!(report.messages <= 12 + 30 + 5, "messages = {}", report.messages);
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
