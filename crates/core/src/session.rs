//! The committing network's side of one PVR decision round.
//!
//! For one (prefix, epoch) round, network A:
//!
//! 1. evaluates its route-flow graph on the received inputs (§2.1);
//! 2. computes the §3.3 bit vector `b_1..b_k` over the promise's scope;
//! 3. builds the sparse MHT of §3.6 — one leaf per bit slot and one
//!    leaf per graph vertex (the `I(x)` records of §3.7);
//! 4. signs the root and publishes it to all neighbors;
//! 5. answers selective-disclosure queries: each provider N_i gets the
//!    bit its own route is judged at, the receiver B gets all bits plus
//!    the exported (attested) route, and graph structure is revealed
//!    per the α policy.

use crate::bits::{existential_bit, judged_bit, min_bit_vector};
use crate::record::{make_record, VertexContent, VertexOpenings};
use crate::round::Cast;
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::{Asn, Prefix, Route};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::encoding::Wire;
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::Opening;
use pvr_mht::{InclusionProof, Label, ProofBatch, SignedRoot, SparseMht};
use pvr_rfg::{AccessPolicy, Evaluation, RouteFlowGraph, VertexRef};
use std::collections::BTreeMap;

/// The MHT label of bit `index`: slot group 0 holds the single
/// existential bit (§3.2, index 0), group 1 the minimum operator's
/// `b_1..b_k` (§3.3).
fn slot_label(index: u32) -> Label {
    if index == 0 {
        Label::Slot(0, 0)
    } else {
        Label::Slot(1, index)
    }
}

/// Identifies one decision round: which prefix, which epoch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoundContext {
    /// The prefix being decided.
    pub prefix: Prefix,
    /// Monotone epoch (e.g. update sequence number).
    pub epoch: u64,
}

impl RoundContext {
    /// Canonical context bytes used in the signed root.
    pub fn context_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(b"pvr.round");
        self.prefix.encode(&mut buf);
        buf
    }

    /// The root check every verifier and the auditor make: `root` is
    /// signed by `a`, for this round's context and epoch, and its
    /// signature verifies. The error names the first failed condition.
    pub(crate) fn check_root(
        &self,
        root: &SignedRoot,
        a: Asn,
        keys: &KeyStore,
    ) -> Result<(), &'static str> {
        if root.signer != a.principal() {
            return Err("root signed by someone else");
        }
        if root.context != self.context_bytes() || root.epoch != self.epoch {
            return Err("root is for a different round");
        }
        root.verify(keys).map_err(|_| "root signature invalid")
    }
}

/// Protocol parameters shared by committer and verifiers.
#[derive(Clone, Copy, Debug)]
pub struct PvrParams {
    /// "The maximum AS-path length at A" (§3.3): the bit-vector length.
    pub max_path_len: usize,
}

impl Default for PvrParams {
    fn default() -> Self {
        PvrParams { max_path_len: 16 }
    }
}

/// A revealed bit: its 1-based index and the MHT inclusion proof whose
/// leaf payload is `bit ‖ blinding`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitReveal {
    /// 1-based index into the bit vector (0 = the existential slot).
    pub index: u32,
    /// Proof against the signed root; payload encodes the bit.
    pub proof: InclusionProof,
}

impl BitReveal {
    /// Parses the revealed bit from the proof payload.
    pub fn bit(&self) -> Option<bool> {
        parse_bit_payload(&self.proof.payload)
    }

    /// The reveal check every verifier and the auditor make: the label
    /// is this index's slot, the proof folds to the root `batch` is
    /// bound to (one batch per signed root: the reveals of a disclosure
    /// share most of their tree nodes), and the payload is a bit.
    /// Returns the bit; the error names the first failed condition.
    pub(crate) fn check(&self, batch: &mut ProofBatch) -> Result<bool, &'static str> {
        if self.proof.label != slot_label(self.index) {
            return Err("reveal label does not match index");
        }
        if !batch.verify(&self.proof) {
            return Err("reveal proof does not match root");
        }
        self.bit().ok_or("reveal payload malformed")
    }
}

pvr_crypto::wire_struct!(BitReveal { index, proof });

/// Leaf payload for a bit slot: `bit ‖ 32-byte blinding` (the paper's
/// `b ‖ p` from §3.2).
fn bit_payload(bit: bool, rng: &mut HmacDrbg) -> Vec<u8> {
    let mut payload = Vec::with_capacity(33);
    payload.push(bit as u8);
    payload.extend_from_slice(&rng.bytes(32));
    payload
}

/// Parses a bit-slot payload.
pub fn parse_bit_payload(payload: &[u8]) -> Option<bool> {
    if payload.len() != 33 {
        return None;
    }
    match payload[0] {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// A selectively-revealed graph vertex: the leaf proof (establishing the
/// committed record) plus whichever openings the verifier is authorized
/// to see (§3.7: "the three types of information can be revealed
/// independently").
#[derive(Clone, Debug)]
pub struct GraphReveal {
    /// MHT proof for the vertex leaf; payload is the `VertexRecord`.
    pub proof: InclusionProof,
    /// Opening of the predecessor list, if structure access granted.
    pub preds: Option<Opening>,
    /// Opening of the successor list, if structure access granted.
    pub succs: Option<Opening>,
    /// Opening of the content, if content access granted.
    pub content: Option<Opening>,
}

pvr_crypto::wire_struct!(GraphReveal { proof, preds, succs, content });

/// Everything one neighbor receives from A in one round.
#[derive(Clone, Debug, Default)]
pub struct Disclosure {
    /// The signed root (also gossiped separately).
    pub signed_root: Option<SignedRoot>,
    /// Revealed bits (provider: own length; receiver: all).
    pub bit_reveals: Vec<BitReveal>,
    /// The exported route with its attestation chain (receiver only).
    pub exported: Option<SignedRoute>,
    /// Graph-navigation reveals per α.
    pub graph: Vec<GraphReveal>,
}

pvr_crypto::wire_struct!(Disclosure { signed_root, bit_reveals, exported, graph });

impl pvr_netsim::Payload for Disclosure {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

/// A's committer for one round.
pub struct Committer {
    identity: Identity,
    params: PvrParams,
    round: RoundContext,
    graph: RouteFlowGraph,
    eval: Evaluation,
    /// Inputs with their attestation chains, by neighbor.
    inputs: BTreeMap<Asn, Vec<SignedRoute>>,
    bits: Vec<bool>,
    mht: SparseMht,
    vertex_openings: BTreeMap<Label, VertexOpenings>,
    signed_root: SignedRoot,
}

impl Committer {
    /// Builds A's round state for `cast`: the graph evaluation and the
    /// bit vector over the promise's scope (the N_i) both derive from
    /// the cast's inputs.
    pub fn new(cast: &Cast, rng: &mut HmacDrbg) -> Committer {
        let plain_inputs: BTreeMap<Asn, Vec<Route>> = cast
            .inputs
            .iter()
            .map(|(&n, srs)| (n, srs.iter().map(|sr| sr.route.clone()).collect()))
            .collect();
        let eval = cast.graph.evaluate(&plain_inputs).expect("graph must validate");

        let scope_routes: Vec<&Route> =
            cast.ns.iter().flat_map(|n| plain_inputs.get(n).into_iter().flatten()).collect();
        let bits = min_bit_vector(&scope_routes, cast.params.max_path_len);
        let exist = existential_bit(&scope_routes);

        let (mht, vertex_openings) = build_mht(cast.graph, &eval, &bits, exist, rng);
        let round = cast.round.clone();
        let signed_root =
            SignedRoot::create(cast.identity, round.context_bytes(), round.epoch, mht.root());

        Committer {
            identity: cast.identity.clone(),
            params: cast.params,
            round,
            graph: cast.graph.clone(),
            eval,
            inputs: cast.inputs.clone(),
            bits,
            mht,
            vertex_openings,
            signed_root,
        }
    }

    /// The same round committed to `bits` instead of the true vector —
    /// what a lying A signs (truthful evaluation, dishonest bits).
    pub(crate) fn with_bits(mut self, bits: Vec<bool>, rng: &mut HmacDrbg) -> Committer {
        let exist = bits.iter().any(|&b| b);
        (self.mht, self.vertex_openings) = build_mht(&self.graph, &self.eval, &bits, exist, rng);
        self.signed_root = SignedRoot::create(
            &self.identity,
            self.round.context_bytes(),
            self.round.epoch,
            self.mht.root(),
        );
        self.bits = bits;
        self
    }

    /// The signed root commitment (published to all neighbors, then
    /// gossiped among them).
    pub fn signed_root(&self) -> &SignedRoot {
        &self.signed_root
    }

    /// The round context.
    pub fn round(&self) -> &RoundContext {
        &self.round
    }

    /// The protocol parameters.
    pub fn params(&self) -> PvrParams {
        self.params
    }

    /// The evaluation (for tests/ablation; a real A keeps this private).
    pub fn evaluation(&self) -> &Evaluation {
        &self.eval
    }

    /// The bit vector (private; exposed for the adversary module and
    /// tests).
    pub(crate) fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Reveals bit `index` (1-based; 0 = existential slot).
    pub fn reveal_bit(&self, index: u32) -> Option<BitReveal> {
        Some(BitReveal { index, proof: self.mht.prove(&slot_label(index))? })
    }

    /// The one disclosure builder: the signed root, the bits at
    /// `indices`, and the attested export toward `export_to`, if any.
    fn disclose(
        &self,
        indices: impl IntoIterator<Item = u32>,
        export_to: Option<Asn>,
    ) -> Disclosure {
        Disclosure {
            signed_root: Some(self.signed_root.clone()),
            bit_reveals: indices.into_iter().filter_map(|i| self.reveal_bit(i)).collect(),
            exported: export_to.and_then(|b| self.export_route(b)),
            graph: Vec::new(),
        }
    }

    /// The §3.3 disclosure to provider `n`: for each route it advertised,
    /// the bit that route is judged at ("To each N_i that has provided a
    /// route r_i to A, A now reveals the bit b_{|r_i|}", with
    /// `|r_i|` capped at k).
    pub fn disclosure_for_provider(&self, n: Asn) -> Disclosure {
        self.disclosure_for_routes(self.inputs.get(&n).map_or(&[], Vec::as_slice))
    }

    /// Reveals the bit each of `routes` is judged at
    /// ([`judged_bit`]) — a provider's query, answered even by a view
    /// that dropped its routes.
    pub(crate) fn disclosure_for_routes(&self, routes: &[SignedRoute]) -> Disclosure {
        let mut indices: Vec<u32> = routes
            .iter()
            .map(|sr| judged_bit(sr.route.path_len(), self.params.max_path_len) as u32)
            .filter(|&i| i >= 1)
            .collect();
        indices.sort_unstable();
        indices.dedup();
        self.disclose(indices, None)
    }

    /// The §3.3 disclosure to the receiver `b`: "A also reveals all the
    /// bits b_i to B", plus the exported attested route for the graph's
    /// output to `b`.
    pub fn disclosure_for_receiver(&self, b: Asn) -> Disclosure {
        self.disclose(1..=self.params.max_path_len as u32, Some(b))
    }

    /// The §3.2 existential disclosure to provider `n`: the single bit
    /// `b` with its opening ("A can reveal b and p to each N_i that has
    /// provided a route").
    pub fn existential_disclosure_for_provider(&self) -> Disclosure {
        self.disclose([0], None)
    }

    /// The §3.2 existential disclosure to the receiver.
    pub fn existential_disclosure_for_receiver(&self, b: Asn) -> Disclosure {
        self.disclose([0], Some(b))
    }

    /// Builds the attested export of the graph's output variable for
    /// neighbor `b`: A prepends itself and extends the chosen input's
    /// attestation chain toward `b`.
    pub fn export_route(&self, b: Asn) -> Option<SignedRoute> {
        let (out_var, _) = self.graph.outputs().into_iter().find(|&(_, n)| n == b)?;
        let chosen = self.eval.single(out_var)?.clone();
        let out_route = chosen.propagated_by(Asn(self.identity.id() as u32));
        // Find the matching input's chain to extend.
        let source = chosen.path.first_as()?;
        let received = self
            .inputs
            .get(&source)?
            .iter()
            .find(|sr| sr.route.path == chosen.path && sr.route.prefix == chosen.prefix)?;
        if received.is_signed() {
            Some(SignedRoute::extend(received, &self.identity, out_route, b))
        } else {
            Some(SignedRoute::unsigned(out_route))
        }
    }

    /// A's identity (crate-internal: the adversary module signs extra
    /// artifacts with it).
    pub(crate) fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Extends the chain of the route `n` provided toward `to` — used by
    /// adversaries that export a route other than the graph's output
    /// (the chain is genuine; only the *choice* violates the promise).
    pub(crate) fn export_input_route(&self, n: Asn, to: Asn) -> Option<SignedRoute> {
        let received = self.inputs.get(&n)?.first()?;
        let out_route = received.route.clone().propagated_by(Asn(self.identity.id() as u32));
        if received.is_signed() {
            Some(SignedRoute::extend(received, &self.identity, out_route, to))
        } else {
            Some(SignedRoute::unsigned(out_route))
        }
    }

    /// Graph-navigation disclosure for neighbor `n` under policy `α`
    /// (§3.7): every vertex with structure or content access yields a
    /// [`GraphReveal`] with exactly the authorized openings.
    pub fn graph_disclosure_for(&self, n: Asn, alpha: &AccessPolicy) -> Vec<GraphReveal> {
        let mut reveals = Vec::new();
        for v in self.graph.vars() {
            let access = alpha.access(n, VertexRef::Var(v.id));
            if !access.structure && !access.content {
                continue;
            }
            if let Some(r) =
                self.vertex_reveal(&Label::Var(v.id.0), access.structure, access.content)
            {
                reveals.push(r);
            }
        }
        for op in self.graph.ops() {
            let access = alpha.access(n, VertexRef::Op(op.id));
            if !access.structure && !access.content {
                continue;
            }
            if let Some(r) =
                self.vertex_reveal(&Label::Rule(op.id.0), access.structure, access.content)
            {
                reveals.push(r);
            }
        }
        reveals
    }

    fn vertex_reveal(&self, label: &Label, structure: bool, content: bool) -> Option<GraphReveal> {
        let proof = self.mht.prove(label)?;
        let openings = self.vertex_openings.get(label)?;
        Some(GraphReveal {
            proof,
            preds: structure.then(|| openings.preds.clone()),
            succs: structure.then(|| openings.succs.clone()),
            content: content.then(|| openings.content.clone()),
        })
    }
}

/// Builds the round MHT: bit slots + vertex records.
fn build_mht(
    graph: &RouteFlowGraph,
    eval: &Evaluation,
    bits: &[bool],
    exist: bool,
    rng: &mut HmacDrbg,
) -> (SparseMht, BTreeMap<Label, VertexOpenings>) {
    let mut items: Vec<(Label, Vec<u8>)> = Vec::new();
    // Bit slots (index 1-based to match the paper's b_1..b_k).
    items.push((slot_label(0), bit_payload(exist, rng)));
    for (i, &b) in bits.iter().enumerate() {
        items.push((slot_label(i as u32 + 1), bit_payload(b, rng)));
    }
    // Vertex records.
    let mut openings = BTreeMap::new();
    for v in graph.vars() {
        let label = Label::Var(v.id.0);
        let preds: Vec<Label> =
            graph.writer_of(v.id).map(|op| vec![Label::Rule(op.id.0)]).unwrap_or_default();
        let succs: Vec<Label> =
            graph.readers_of(v.id).iter().map(|op| Label::Rule(op.id.0)).collect();
        let content = VertexContent::Variable { routes: eval.value(v.id).to_vec() };
        let (record, opens) = make_record(&preds, &succs, &content, rng);
        items.push((label.clone(), record.to_wire()));
        openings.insert(label, opens);
    }
    for op in graph.ops() {
        let label = Label::Rule(op.id.0);
        let preds: Vec<Label> = op.inputs.iter().map(|v| Label::Var(v.0)).collect();
        let succs = vec![Label::Var(op.output.0)];
        let content = VertexContent::Operator { kind: op.kind.clone() };
        let (record, opens) = make_record(&preds, &succs, &content, rng);
        items.push((label.clone(), record.to_wire()));
        openings.insert(label, opens);
    }
    let mut seed = [0u8; 32];
    rng.generate(&mut seed);
    (SparseMht::build(&items, seed), openings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Figure1Bed;

    #[test]
    fn committer_basics() {
        let bed = Figure1Bed::build(&[1, 2, 3], 42);
        let c = bed.honest_committer();
        // Root is signed by A and verifies.
        assert!(c.signed_root().verify(&bed.keys).is_ok());
        // Bits encode min = 1 (N1's route has path length 1).
        assert_eq!(crate::bits::claimed_min(c.bits()), Some(1));
    }

    #[test]
    fn provider_disclosure_contains_own_length_bit() {
        let bed = Figure1Bed::build(&[1, 3], 43);
        let c = bed.honest_committer();
        // N1's route has path length 1.
        let d = c.disclosure_for_provider(bed.ns[0]);
        assert_eq!(d.bit_reveals.len(), 1);
        assert_eq!(d.bit_reveals[0].index, 1);
        assert_eq!(d.bit_reveals[0].bit(), Some(true));
        assert!(d.bit_reveals[0].proof.verify(&c.signed_root().root));
        assert!(d.exported.is_none());
    }

    #[test]
    fn receiver_disclosure_has_all_bits_and_route() {
        let bed = Figure1Bed::build(&[2, 1], 44);
        let c = bed.honest_committer();
        let d = c.disclosure_for_receiver(bed.b);
        assert_eq!(d.bit_reveals.len(), c.params().max_path_len);
        for r in &d.bit_reveals {
            assert!(r.proof.verify(&c.signed_root().root), "bit {}", r.index);
        }
        let exported = d.exported.expect("route to B");
        // Exported route: A prepended to the shortest input (length 1).
        assert_eq!(exported.route.path_len(), 2);
        assert_eq!(exported.route.path.first_as(), Some(bed.a));
        assert!(exported.verify(bed.b, &bed.keys).is_ok());
    }

    #[test]
    fn existential_disclosures() {
        let bed = Figure1Bed::build(&[1], 45);
        let c = bed.honest_committer();
        let d = c.existential_disclosure_for_provider();
        assert_eq!(d.bit_reveals.len(), 1);
        assert_eq!(d.bit_reveals[0].index, 0);
        assert_eq!(d.bit_reveals[0].bit(), Some(true));
        let dr = c.existential_disclosure_for_receiver(bed.b);
        assert!(dr.exported.is_some());
    }

    #[test]
    fn reveal_unknown_bit_is_none() {
        let bed = Figure1Bed::build(&[1], 46);
        let c = bed.honest_committer();
        assert!(c.reveal_bit(999).is_none());
    }

    #[test]
    fn graph_disclosure_respects_alpha() {
        let bed = Figure1Bed::build(&[1, 2], 48);
        let c = bed.honest_committer();
        let everyone: Vec<Asn> = bed.cast().neighbors().collect();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone);

        // B can navigate: it gets reveals for every vertex, with content
        // only for its output and the operator.
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        assert_eq!(reveals.len(), bed.graph.vars().count() + bed.graph.ops().count());
        let content_count = reveals.iter().filter(|r| r.content.is_some()).count();
        assert_eq!(content_count, 2, "output var + min operator");
        // All proofs bind to the same root.
        for r in &reveals {
            assert!(r.proof.verify(&c.signed_root().root));
        }

        // N1 gets content for its own input + the operator.
        let reveals = c.graph_disclosure_for(bed.ns[0], &alpha);
        let content_count = reveals.iter().filter(|r| r.content.is_some()).count();
        assert_eq!(content_count, 2, "own input + min operator");
    }

    #[test]
    fn bit_payload_parsing() {
        let mut rng = HmacDrbg::new(b"payload");
        let p = bit_payload(true, &mut rng);
        assert_eq!(parse_bit_payload(&p), Some(true));
        let p = bit_payload(false, &mut rng);
        assert_eq!(parse_bit_payload(&p), Some(false));
        assert_eq!(parse_bit_payload(&[2; 33]), None);
        assert_eq!(parse_bit_payload(&[0; 10]), None);
    }

    #[test]
    fn deterministic_commitment() {
        let bed1 = Figure1Bed::build(&[1, 2], 49);
        let bed2 = Figure1Bed::build(&[1, 2], 49);
        assert_eq!(
            bed1.honest_committer().signed_root().root,
            bed2.honest_committer().signed_root().root
        );
    }
}
