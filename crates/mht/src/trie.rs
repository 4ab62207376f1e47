//! The sparse, blinded Merkle hash tree of §3.6.
//!
//! Conceptually the tree has one leaf per valid prefix-free bitstring;
//! concretely a network instantiates only "a) the instantiated leaves,
//! b) all the inner nodes along a path from an instantiated leaf to the
//! root, and c) all the immediate children of these inner nodes". The
//! immediate children that are *not* on any path are **phantom nodes**
//! whose values are pseudorandom bitstrings derived from a secret seed —
//! "since the neighbor does not know whether the hash values are random
//! bitstrings or hashes of 'real' interior nodes, this does not reveal
//! the presence or absence of any vertices other than x".
//!
//! Disclosure of a leaf is an authentication path: the sibling hash at
//! every level from the leaf to the root. Verifiers recompute the root
//! and compare with the previously published (signed, gossiped) value.
//!
//! Work on both sides is proportional to *distinct tree nodes*. The
//! committer's [`SparseMht`] is an index-linked binary trie whose
//! phantoms come from one prepared HMAC key; the verifier's
//! [`ProofBatch`] checks the many proofs of one disclosure against one
//! root and hashes a node that several of them share once (DESIGN.md,
//! "Proof batches").

use crate::label::{BitString, Label};
use pvr_crypto::encoding::Wire;
use pvr_crypto::hmac::HmacKey;
use pvr_crypto::sha256::{sha256_concat, Digest};
use std::collections::HashMap;

/// Domain-separated leaf hash: `H("leaf" || path || payload)`.
fn leaf_hash(path: &BitString, payload: &[u8]) -> Digest {
    let (len, bytes) = path.canonical_parts();
    sha256_concat(&[b"pvr.mht.leaf", &len, bytes, payload])
}

/// Domain-separated inner-node hash: `H("node" || left || right)`.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[b"pvr.mht.node", left.as_bytes(), right.as_bytes()])
}

const PHANTOM_TAG: &[u8] = b"pvr.mht.phantom";
const PUBLIC_PHANTOM_TAG: &[u8] = b"pvr.mht.phantom.public";

/// The *unblinded* phantom value used by the ablation mode: a public
/// function of the path alone. Anyone can recompute it — which is
/// exactly the leak the paper's blinding prevents (see
/// [`SiblingBlinding::Unblinded`]).
pub fn unblinded_phantom(path: &BitString) -> Digest {
    sha256_concat(&[PUBLIC_PHANTOM_TAG, &path.canonical_bytes()])
}

/// Whether phantom siblings are blinded (the paper's design, §3.6) or
/// publicly recomputable (the E11 structural-privacy ablation).
///
/// With `Unblinded`, any proof recipient can test each sibling hash
/// against [`unblinded_phantom`] and learn whether the adjacent subtree
/// is empty — i.e., *the absence of rules/variables*, precisely the
/// structural information §3.6 is designed to hide ("this does not
/// reveal the presence or absence of any vertices other than x").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SiblingBlinding {
    /// Seed-keyed phantoms (the paper's construction).
    Blinded,
    /// Publicly derivable phantoms (the leaky strawman).
    Unblinded,
}

/// "No node" in a child slot. Index 0 is always a root, never a child.
const NONE: u32 = 0;

/// One instantiated node of a [`SparseMht`]: its hash and, for an inner
/// node, the indices of its two children (leaves and phantoms have
/// none).
struct Node {
    hash: Digest,
    child: [u32; 2],
}

/// A sparse Merkle hash tree over labeled leaves.
///
/// Owned by the committing network; neighbors only ever see the root
/// (via a signed commitment) and individual [`InclusionProof`]s.
pub struct SparseMht {
    /// Every instantiated node, the root first; a path from the root
    /// follows `child[bit]`.
    nodes: Vec<Node>,
    /// Leaf payloads by label (for proof construction).
    leaves: HashMap<Label, Vec<u8>>,
}

/// What [`SparseMht::build_with`] carries down the tree: the nodes so
/// far and where phantoms come from. The secret seed lives here, as a
/// prepared HMAC key, and goes when the build ends — every sibling a
/// proof needs is an instantiated node.
struct Builder {
    nodes: Vec<Node>,
    /// `None` in the unblinded ablation.
    key: Option<HmacKey>,
    /// The canonical path bytes of the phantom being derived.
    path: Vec<u8>,
}

impl Builder {
    fn push(&mut self, hash: Digest) -> u32 {
        self.nodes.push(Node { hash, child: [NONE; 2] });
        (self.nodes.len() - 1) as u32
    }

    /// Phantom-child value for the uninstantiated subtree whose
    /// canonical path bytes are in `self.path`: keyed PRF of the path,
    /// indistinguishable from a genuine subtree hash without the seed.
    fn push_phantom(&mut self) -> u32 {
        let hash = match &self.key {
            Some(key) => key.mac(&[PHANTOM_TAG, &self.path]),
            None => sha256_concat(&[PUBLIC_PHANTOM_TAG, &self.path]),
        };
        self.push(hash)
    }

    /// Builds the subtree under the first `depth` bits that `leaves`
    /// (sorted by path, not empty) share; returns its node's index.
    fn subtree(&mut self, leaves: &[(BitString, Digest)], depth: usize) -> u32 {
        if let [(path, hash)] = leaves {
            if path.len() == depth {
                return self.push(*hash);
            }
        }
        // Prefix-freeness guarantees no leaf terminates at an inner
        // node, so every leaf here has a bit at `depth`.
        let at = self.push(Digest::ZERO);
        let ones = leaves.partition_point(|(path, _)| !path.bit(depth));
        let mut child = [NONE; 2];
        for (bit, side) in [&leaves[..ones], &leaves[ones..]].into_iter().enumerate() {
            child[bit] = if side.is_empty() {
                leaves[0].0.sibling_canonical_into(depth, &mut self.path);
                self.push_phantom()
            } else {
                self.subtree(side, depth + 1)
            };
        }
        let [left, right] = child.map(|c| self.nodes[c as usize].hash);
        self.nodes[at as usize] = Node { hash: node_hash(&left, &right), child };
        at
    }
}

impl SparseMht {
    /// Builds the tree over `(label, payload)` pairs.
    ///
    /// `seed` is the committing network's secret; it never leaves the
    /// build. Duplicate labels panic (a network must assign unique
    /// bitstrings, §3.6), and so does a `Custom` label over
    /// [`Label::MAX_CUSTOM_LEN`], which has no bitstring.
    pub fn build(items: &[(Label, Vec<u8>)], seed: [u8; 32]) -> SparseMht {
        Self::build_with(items, seed, SiblingBlinding::Blinded)
    }

    /// Builds the tree with an explicit blinding mode (the `Unblinded`
    /// mode exists only for the structural-privacy ablation; never use
    /// it outside experiments).
    pub fn build_with(
        items: &[(Label, Vec<u8>)],
        seed: [u8; 32],
        blinding: SiblingBlinding,
    ) -> SparseMht {
        let mut leaves = HashMap::with_capacity(items.len());
        let mut hashed = Vec::with_capacity(items.len());
        for (label, payload) in items {
            let prev = leaves.insert(label.clone(), payload.clone());
            assert!(prev.is_none(), "duplicate MHT label {label:?}");
            let path = label.try_to_bits().expect("MHT label over Label::MAX_CUSTOM_LEN");
            let hash = leaf_hash(&path, payload);
            hashed.push((path, hash));
        }
        hashed.sort_unstable();
        let mut b = Builder {
            nodes: Vec::new(),
            key: (blinding == SiblingBlinding::Blinded).then(|| HmacKey::new(&seed)),
            path: Vec::new(),
        };
        if hashed.is_empty() {
            // The root of an empty tree is the phantom of the empty path.
            b.path = BitString::empty().canonical_bytes();
            b.push_phantom();
        } else {
            b.subtree(&hashed, 0);
        }
        SparseMht { nodes: b.nodes, leaves }
    }

    /// The root hash — this is what gets signed and published (§3.6).
    pub fn root(&self) -> Digest {
        self.nodes[0].hash
    }

    /// Number of instantiated leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Number of instantiated nodes (path nodes and their phantom
    /// children) — used by the overhead accounting in experiment E6.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Produces the selective-disclosure proof for `label`, or `None` if
    /// the label is not instantiated.
    pub fn prove(&self, label: &Label) -> Option<InclusionProof> {
        let payload = self.leaves.get(label)?.clone();
        let path = label.to_bits();
        // Walk from the root to the leaf, collecting the other child at
        // each level; every child of a path node is instantiated.
        let mut siblings = Vec::with_capacity(path.len());
        let mut at = &self.nodes[0];
        for depth in 0..path.len() {
            let bit = path.bit(depth) as usize;
            siblings.push(self.nodes[at.child[1 - bit] as usize].hash);
            at = &self.nodes[at.child[bit] as usize];
        }
        siblings.reverse();
        Some(InclusionProof { label: label.clone(), payload, siblings })
    }

    /// Direct payload access for the tree owner.
    pub fn payload(&self, label: &Label) -> Option<&[u8]> {
        self.leaves.get(label).map(|v| v.as_slice())
    }

    /// Iterates over instantiated labels (order unspecified).
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.leaves.keys()
    }
}

/// A selective-disclosure proof: the leaf payload plus the hash values
/// "for interior nodes along the path from x to the MHT's root" (§3.6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InclusionProof {
    /// The disclosed leaf's label.
    pub label: Label,
    /// The disclosed payload `I(x)`.
    pub payload: Vec<u8>,
    /// Sibling hashes, ordered leaf-to-root.
    pub siblings: Vec<Digest>,
}

impl InclusionProof {
    /// Verifies the proof against a published root. Checking several
    /// proofs against one root is cheaper through a [`ProofBatch`].
    pub fn verify(&self, root: &Digest) -> bool {
        let Some(path) = self.path() else {
            return false;
        };
        let leaf = leaf_hash(&path, &self.payload);
        self.fold(&path, leaf, path.len(), 0, |_| {}) == *root
    }

    /// The leaf's path, if the label has one and the proof carries a
    /// sibling for each of its levels.
    fn path(&self) -> Option<BitString> {
        let path = self.label.try_to_bits()?;
        (self.siblings.len() == path.len()).then_some(path)
    }

    /// The leaf-to-root fold, between two depths: from `hash`, the hash
    /// of the node `from` bits down `path`, to the hash of the node `to`
    /// bits down it, handing each hash it computes to `computed`.
    fn fold(
        &self,
        path: &BitString,
        mut hash: Digest,
        from: usize,
        to: usize,
        mut computed: impl FnMut(&Digest),
    ) -> Digest {
        for depth in (to..from).rev() {
            let sibling = &self.siblings[path.len() - 1 - depth];
            hash =
                if path.bit(depth) { node_hash(sibling, &hash) } else { node_hash(&hash, sibling) };
            computed(&hash);
        }
        hash
    }

    /// Size of the proof in bytes when serialized (for E6).
    pub fn byte_size(&self) -> usize {
        self.encoded_len()
    }
}

pvr_crypto::wire_struct!(InclusionProof { label, payload, siblings });

/// A node of a [`ProofBatch`] memo: a hash some accepted proof computed
/// at this tree position, and the sibling it combined it with.
struct Accepted {
    hash: Digest,
    /// Unused at the root.
    sibling: Digest,
    child: [u32; 2],
}

/// Verifies many proofs against one root, hashing a tree node that
/// several of them share once.
///
/// [`Self::verify`] returns exactly what [`InclusionProof::verify`]
/// returns against the same root, for any proofs in any order. The
/// memo is a trie of the nodes accepted proofs hashed, with one
/// invariant: every node but the root, combined with its recorded
/// sibling on the side its position says, hashes to its parent, and the
/// root node holds the root. A new proof walks down the memo along its
/// own path for as long as its siblings are byte-identical to the
/// recorded ones, folds from its leaf up to the node where the walk
/// stopped, and is accepted there if the two hashes agree — from that
/// node on, its own fold would repeat, input for input, hashes that by
/// the invariant end at the root. If they disagree it hashes on to the
/// root as a lone proof would. Only an accepted proof adds nodes.
pub struct ProofBatch {
    /// The memo; `nodes[0]` is the root.
    nodes: Vec<Accepted>,
    node_hashes: u64,
}

impl ProofBatch {
    /// A batch bound to `root`.
    pub fn new(root: Digest) -> ProofBatch {
        let root = Accepted { hash: root, sibling: Digest::ZERO, child: [NONE; 2] };
        ProofBatch { nodes: vec![root], node_hashes: 0 }
    }

    /// The root every proof is checked against.
    pub fn root(&self) -> &Digest {
        &self.nodes[0].hash
    }

    /// Inner-node hashes computed so far (leaf hashes not counted): the
    /// clock-free cost of the batch, for tests and benches. Each proof
    /// checked alone costs one per level of its path.
    pub fn node_hashes(&self) -> u64 {
        self.node_hashes
    }

    /// `proof.verify(self.root())`, sharing work with the proofs this
    /// batch has already accepted.
    pub fn verify(&mut self, proof: &InclusionProof) -> bool {
        let Some(path) = proof.path() else {
            return false;
        };
        let len = path.len();
        // The deepest memo node on this path whose ancestors all carry
        // the siblings this proof carries.
        let (mut at, mut depth) = (0, 0);
        while depth < len {
            let next = self.nodes[at].child[path.bit(depth) as usize] as usize;
            if next == NONE as usize || self.nodes[next].sibling != proof.siblings[len - 1 - depth]
            {
                break;
            }
            (at, depth) = (next, depth + 1);
        }
        // Fold up to there, appending this proof's nodes leaf first, each
        // linked to the one below it. Nothing in the memo points at them
        // yet: they join it only if the node at `at` adopts the last.
        let base = self.nodes.len();
        let nodes = &mut self.nodes;
        nodes.reserve(len - depth);
        let (mut below, mut d) = (leaf_hash(&path, &proof.payload), len);
        let hash = proof.fold(&path, below, len, depth, |parent| {
            let mut child = [NONE; 2];
            if d < len {
                child[path.bit(d) as usize] = (nodes.len() - 1) as u32;
            }
            nodes.push(Accepted { hash: below, sibling: proof.siblings[len - d], child });
            (below, d) = (*parent, d - 1);
        });
        self.node_hashes += (len - depth) as u64;
        let accepted = hash == self.nodes[at].hash;
        // (An occupied slot under an agreeing node means two siblings
        // hash to one parent; leave the memo as it is.)
        if accepted && depth < len && self.nodes[at].child[path.bit(depth) as usize] == NONE {
            self.nodes[at].child[path.bit(depth) as usize] = (self.nodes.len() - 1) as u32;
        } else {
            self.nodes.truncate(base);
        }
        if accepted {
            return true;
        }
        // No shortcut: hash on to the root as a lone proof would.
        self.node_hashes += depth as u64;
        proof.fold(&path, hash, depth, 0, |_| {}) == *self.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pvr_crypto::drbg::HmacDrbg;
    use std::collections::BTreeSet;

    fn items(n: u32) -> Vec<(Label, Vec<u8>)> {
        (0..n).map(|i| (Label::Var(i), format!("payload-{i}").into_bytes())).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let t = SparseMht::build(&items(1), [1; 32]);
        let proof = t.prove(&Label::Var(0)).unwrap();
        assert!(proof.verify(&t.root()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn all_leaves_provable() {
        let t = SparseMht::build(&items(17), [2; 32]);
        for i in 0..17 {
            let proof = t.prove(&Label::Var(i)).unwrap();
            assert!(proof.verify(&t.root()), "leaf {i}");
            assert_eq!(proof.payload, format!("payload-{i}").into_bytes());
        }
    }

    #[test]
    fn absent_label_unprovable() {
        let t = SparseMht::build(&items(4), [3; 32]);
        assert!(t.prove(&Label::Var(99)).is_none());
        assert!(t.prove(&Label::Rule(0)).is_none());
    }

    #[test]
    fn mixed_label_kinds() {
        let mut xs = items(3);
        xs.push((Label::Rule(0), b"min".to_vec()));
        xs.push((Label::Slot(1, 2), b"bit".to_vec()));
        xs.push((Label::Custom(b"extra".to_vec()), b"x".to_vec()));
        let t = SparseMht::build(&xs, [4; 32]);
        for (label, payload) in &xs {
            let p = t.prove(label).unwrap();
            assert!(p.verify(&t.root()));
            assert_eq!(&p.payload, payload);
        }
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let t1 = SparseMht::build(&items(4), [5; 32]);
        let t2 = SparseMht::build(&items(5), [5; 32]);
        let proof = t1.prove(&Label::Var(0)).unwrap();
        assert!(!proof.verify(&t2.root()));
    }

    #[test]
    fn proof_rejects_tampered_payload() {
        let t = SparseMht::build(&items(4), [6; 32]);
        let mut proof = t.prove(&Label::Var(1)).unwrap();
        proof.payload = b"forged".to_vec();
        assert!(!proof.verify(&t.root()));
    }

    #[test]
    fn proof_rejects_tampered_sibling() {
        let t = SparseMht::build(&items(4), [7; 32]);
        let mut proof = t.prove(&Label::Var(1)).unwrap();
        proof.siblings[0] = Digest::ZERO;
        assert!(!proof.verify(&t.root()));
    }

    #[test]
    fn proof_rejects_relabeled_leaf() {
        // A proof for Var(1) must not verify as a proof for Var(2).
        let t = SparseMht::build(&items(4), [8; 32]);
        let mut proof = t.prove(&Label::Var(1)).unwrap();
        proof.label = Label::Var(2);
        assert!(!proof.verify(&t.root()));
    }

    #[test]
    fn roots_differ_with_content() {
        let a = SparseMht::build(&items(4), [9; 32]);
        let mut xs = items(4);
        xs[2].1 = b"changed".to_vec();
        let b = SparseMht::build(&xs, [9; 32]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn roots_differ_with_seed() {
        // Phantom siblings depend on the seed, so the root does too: two
        // networks with identical content are still uncorrelated.
        let a = SparseMht::build(&items(1), [10; 32]);
        let b = SparseMht::build(&items(1), [11; 32]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn deterministic_build() {
        let a = SparseMht::build(&items(8), [12; 32]);
        let b = SparseMht::build(&items(8), [12; 32]);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn empty_tree() {
        let t = SparseMht::build(&[], [13; 32]);
        assert!(t.is_empty());
        // Root of an empty tree is the phantom of the empty path.
        assert_ne!(t.root(), Digest::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate MHT label")]
    fn duplicate_labels_panic() {
        let xs = vec![(Label::Var(0), b"a".to_vec()), (Label::Var(0), b"b".to_vec())];
        SparseMht::build(&xs, [14; 32]);
    }

    #[test]
    #[should_panic(expected = "MHT label over Label::MAX_CUSTOM_LEN")]
    fn over_long_custom_label_panics() {
        let xs = vec![(Label::Custom(vec![0; Label::MAX_CUSTOM_LEN + 1]), b"a".to_vec())];
        SparseMht::build(&xs, [14; 32]);
    }

    #[test]
    fn proof_carrying_over_long_label_does_not_verify() {
        // Before the bound, the over-long label's bitstring wrapped to
        // that of `Custom(vec![])` followed by zeros.
        let t = SparseMht::build(&[(Label::Custom(vec![]), b"x".to_vec())], [14; 32]);
        let mut proof = t.prove(&Label::Custom(vec![])).unwrap();
        assert!(proof.verify(&t.root()));
        proof.label = Label::Custom(vec![0; Label::MAX_CUSTOM_LEN + 1]);
        assert!(!proof.verify(&t.root()));
        assert!(!ProofBatch::new(t.root()).verify(&proof));
    }

    #[test]
    fn proof_wire_round_trip() {
        let t = SparseMht::build(&items(6), [15; 32]);
        let proof = t.prove(&Label::Var(3)).unwrap();
        let back: InclusionProof = pvr_crypto::decode_exact(&proof.to_wire()).unwrap();
        assert_eq!(back, proof);
        assert!(back.verify(&t.root()));
        assert_eq!(proof.byte_size(), proof.to_wire().len());
    }

    #[test]
    fn proof_size_independent_of_leaf_count() {
        // The paper's structure gives proofs proportional to the label
        // length, not the number of leaves: growing the tree must not grow
        // the proof.
        let small = SparseMht::build(&items(2), [16; 32]);
        let large = SparseMht::build(&items(512), [16; 32]);
        let ps = small.prove(&Label::Var(0)).unwrap();
        let pl = large.prove(&Label::Var(0)).unwrap();
        assert_eq!(ps.siblings.len(), pl.siblings.len());
    }

    #[test]
    fn ablation_unblinded_siblings_leak_absence() {
        // The structural-privacy ablation (E11): with public
        // phantom values, a proof recipient can test each sibling hash
        // and learn whether the adjacent subtree is empty.
        use crate::label::BitString;

        let xs = vec![(Label::Var(0), b"only leaf".to_vec())];
        let leaky = SparseMht::build_with(&xs, [20; 32], SiblingBlinding::Unblinded);
        let proof = leaky.prove(&Label::Var(0)).unwrap();
        let path = Label::Var(0).to_bits();

        // Attack: recompute the public phantom for every sibling path
        // and compare. In a single-leaf tree, EVERY sibling is phantom,
        // so the attacker learns the entire tree is otherwise empty.
        let mut detected_empty = 0;
        for (i, sib) in proof.siblings.iter().enumerate() {
            let depth = path.len() - 1 - i;
            let sib_path: BitString = path.prefix(depth).push(!path.bit(depth));
            if *sib == unblinded_phantom(&sib_path) {
                detected_empty += 1;
            }
        }
        assert_eq!(
            detected_empty,
            proof.siblings.len(),
            "unblinded mode reveals every empty subtree"
        );

        // The paper's design: the same attack yields nothing.
        let safe = SparseMht::build(&xs, [20; 32]);
        let proof = safe.prove(&Label::Var(0)).unwrap();
        let mut detected_empty = 0;
        for (i, sib) in proof.siblings.iter().enumerate() {
            let depth = path.len() - 1 - i;
            let sib_path: BitString = path.prefix(depth).push(!path.bit(depth));
            if *sib == unblinded_phantom(&sib_path) {
                detected_empty += 1;
            }
        }
        assert_eq!(detected_empty, 0, "blinded phantoms are untestable");
    }

    #[test]
    fn ablation_unblinded_mode_still_verifies() {
        // Correctness is unaffected by the blinding choice — only
        // privacy differs (that is what makes it an ablation).
        let t = SparseMht::build_with(&items(8), [21; 32], SiblingBlinding::Unblinded);
        for i in 0..8 {
            assert!(t.prove(&Label::Var(i)).unwrap().verify(&t.root()));
        }
    }

    #[test]
    fn disclosure_hides_other_leaves() {
        // Structural privacy check: the proof for Var(0) from a tree that
        // also contains Var(1) must contain no byte sequence equal to
        // Var(1)'s payload or its leaf hash.
        let secret = b"the secret route via N2".to_vec();
        let xs = vec![(Label::Var(0), b"public".to_vec()), (Label::Var(1), secret.clone())];
        let t = SparseMht::build(&xs, [17; 32]);
        let proof_bytes = t.prove(&Label::Var(0)).unwrap().to_wire();
        let needle = &secret[..];
        assert!(
            !proof_bytes.windows(needle.len()).any(|w| w == needle),
            "payload of an undisclosed leaf leaked into a proof"
        );
    }

    /// The receiver's disclosure of §3.3: the 16 bit slots of one group.
    fn slot_tree() -> (SparseMht, Vec<InclusionProof>) {
        let mut xs = items(3);
        xs.push((Label::Slot(0, 0), b"exist".to_vec()));
        xs.extend((1..=16).map(|i| (Label::Slot(1, i), vec![i as u8; 33])));
        let t = SparseMht::build(&xs, [22; 32]);
        let proofs = (1..=16).map(|i| t.prove(&Label::Slot(1, i)).unwrap()).collect();
        (t, proofs)
    }

    #[test]
    fn batch_hashes_each_shared_node_once() {
        let (t, proofs) = slot_tree();
        let mut batch = ProofBatch::new(t.root());
        for p in &proofs {
            assert!(batch.verify(p));
        }
        // The first proof pays its 72 levels; the rest only what lies
        // below the deepest node they share with an earlier one.
        assert!(batch.node_hashes() <= 72 + 15 * 8, "{}", batch.node_hashes());
        let mut alone = 0;
        for p in &proofs {
            let mut one = ProofBatch::new(t.root());
            assert!(one.verify(p));
            alone += one.node_hashes();
        }
        assert_eq!(alone, 16 * 72);
        // A repeated proof costs its leaf hash and nothing else.
        let before = batch.node_hashes();
        assert!(batch.verify(&proofs[7]));
        assert_eq!(batch.node_hashes(), before);
    }

    #[test]
    fn batch_rejects_flipped_upper_sibling_above_a_vouched_node() {
        // Slot(1, 2) and Slot(1, 3) share 71 of 72 levels. With the
        // first accepted, the second one's hash one level up is in the
        // memo — but it carries a different sibling above that node, so
        // its own fold ends elsewhere than the root.
        let (t, proofs) = slot_tree();
        let mut batch = ProofBatch::new(t.root());
        assert!(batch.verify(&proofs[1]));
        for level in [1, 2, 40, 71] {
            let mut bad = proofs[2].clone();
            bad.siblings[level].0[0] ^= 1;
            assert!(!bad.verify(&t.root()));
            assert!(!batch.verify(&bad), "level {level}");
        }
        assert!(batch.verify(&proofs[2]));
    }

    #[test]
    fn rejected_proof_never_seeds_the_memo() {
        let (t, proofs) = slot_tree();
        let mut bad = proofs[0].clone();
        bad.siblings[70].0[5] ^= 0x80;
        let mut batch = ProofBatch::new(t.root());
        assert!(!batch.verify(&bad));
        assert_eq!(batch.node_hashes(), 72);
        // Nothing was remembered: the same proof again is rejected again
        // and pays in full (a seeded memo would vouch for its leaf), and
        // so does the honest proof it shares 70 siblings with.
        assert!(!batch.verify(&bad));
        assert!(batch.verify(&proofs[0]));
        assert_eq!(batch.node_hashes(), 3 * 72);
    }

    /// A tree over a mix of every label kind, sized by `rng`.
    fn mixed_tree(rng: &mut HmacDrbg) -> (SparseMht, Vec<Label>) {
        let mut labels = BTreeSet::new();
        for _ in 0..rng.range(1, 24) {
            let small = rng.below(6) as u32;
            labels.insert(match rng.below(4) {
                0 => Label::Var(small),
                1 => Label::Rule(small),
                2 => Label::Slot(rng.below(2) as u32, small),
                _ => Label::Custom(rng.bytes(small as usize % 3)),
            });
        }
        let labels: Vec<Label> = labels.into_iter().collect();
        let xs: Vec<_> = labels.iter().map(|l| (l.clone(), rng.bytes(5))).collect();
        (SparseMht::build(&xs, rng.bytes(32).try_into().unwrap()), labels)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Verdict equivalence: whatever the proofs, whatever was done
        /// to them and in whatever order they come, the batch answers
        /// as each proof checked alone.
        #[test]
        fn prop_batch_verdict_equals_lone_verdict(seed in any::<u64>()) {
            let mut rng = HmacDrbg::from_u64_labeled(seed, "proof batch");
            let (tree, labels) = mixed_tree(&mut rng);
            let (other, other_labels) = mixed_tree(&mut rng);
            let root = tree.root();
            let mut batch = ProofBatch::new(root);
            let mut accepted: Vec<InclusionProof> = Vec::new();
            for _ in 0..rng.range(1, 40) {
                let mut p = tree.prove(&labels[rng.index(labels.len())]).unwrap();
                let levels = p.siblings.len();
                match rng.below(10) {
                    0 => {
                        let at = rng.index(p.payload.len());
                        p.payload[at] ^= 1 << rng.below(8);
                    }
                    // Any level: most are shared with accepted proofs.
                    1 | 2 => p.siblings[rng.index(levels)].0[rng.index(32)] ^= 1 << rng.below(8),
                    // A level at or above where an accepted proof joins.
                    3 if !accepted.is_empty() => {
                        let twin = &accepted[rng.index(accepted.len())];
                        let shared = twin.siblings.iter().rev().zip(p.siblings.iter().rev());
                        let shared = shared.take_while(|(a, b)| a == b).count().max(1);
                        p.siblings[levels - 1 - rng.index(shared)].0[0] ^= 1;
                    }
                    4 => p.label = labels[rng.index(labels.len())].clone(),
                    5 => drop(p.siblings.pop()),
                    6 => p.siblings.push(Digest(rng.bytes(32).try_into().unwrap())),
                    7 => p = other.prove(&other_labels[rng.index(other_labels.len())]).unwrap(),
                    _ => {}
                }
                let lone = p.verify(&root);
                prop_assert_eq!(batch.verify(&p), lone, "{:?}", p.label);
                if lone {
                    accepted.push(p);
                }
            }
            // Every accepted proof still verifies, now from the memo.
            let before = batch.node_hashes();
            for p in &accepted {
                prop_assert!(batch.verify(p));
            }
            prop_assert_eq!(batch.node_hashes(), before);
        }
    }

    proptest! {
        #[test]
        fn prop_every_leaf_verifies(n in 1u32..64, seed in any::<[u8; 32]>()) {
            let t = SparseMht::build(&items(n), seed);
            for i in 0..n {
                let p = t.prove(&Label::Var(i)).unwrap();
                prop_assert!(p.verify(&t.root()));
            }
        }

        #[test]
        fn prop_cross_tree_proofs_fail(n in 2u32..32, seed in any::<[u8; 32]>()) {
            let t1 = SparseMht::build(&items(n), seed);
            let mut xs = items(n);
            xs[0].1 = b"different".to_vec();
            let t2 = SparseMht::build(&xs, seed);
            let p = t1.prove(&Label::Var(0)).unwrap();
            prop_assert!(!p.verify(&t2.root()));
        }
    }
}
