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

use crate::label::{BitString, Label};
use pvr_crypto::encoding::Wire;
use pvr_crypto::hmac::hmac_sha256;
use pvr_crypto::sha256::{sha256_concat, Digest};
use std::collections::HashMap;

/// Domain-separated leaf hash: `H("leaf" || path || payload)`.
fn leaf_hash(path: &BitString, payload: &[u8]) -> Digest {
    sha256_concat(&[b"pvr.mht.leaf", &path.canonical_bytes(), payload])
}

/// Domain-separated inner-node hash: `H("node" || left || right)`.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[b"pvr.mht.node", left.as_bytes(), right.as_bytes()])
}

/// Phantom-child value for an uninstantiated subtree: keyed PRF of the
/// path, indistinguishable from a genuine subtree hash without the seed.
fn phantom_hash(seed: &[u8; 32], path: &BitString) -> Digest {
    hmac_sha256(seed, &[b"pvr.mht.phantom".as_slice(), &path.canonical_bytes()].concat())
}

/// The *unblinded* phantom value used by the ablation mode: a public
/// function of the path alone. Anyone can recompute it — which is
/// exactly the leak the paper's blinding prevents (see
/// [`SiblingBlinding::Unblinded`]).
pub fn unblinded_phantom(path: &BitString) -> Digest {
    sha256_concat(&[b"pvr.mht.phantom.public", &path.canonical_bytes()])
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

/// A sparse Merkle hash tree over labeled leaves.
///
/// Owned by the committing network; neighbors only ever see the root
/// (via a signed commitment) and individual [`InclusionProof`]s.
pub struct SparseMht {
    /// Hash of every instantiated node, keyed by its path.
    nodes: HashMap<BitString, Digest>,
    /// Leaf payloads by label (for proof construction).
    leaves: HashMap<Label, Vec<u8>>,
    /// Secret seed for phantom-sibling derivation.
    seed: [u8; 32],
    /// Blinded (paper) or unblinded (ablation) phantom siblings.
    blinding: SiblingBlinding,
    root: Digest,
}

impl SparseMht {
    /// Builds the tree over `(label, payload)` pairs.
    ///
    /// `seed` is the committing network's secret; it never leaves the
    /// struct. Duplicate labels panic (a network must assign unique
    /// bitstrings, §3.6).
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
        for (label, payload) in items {
            let prev = leaves.insert(label.clone(), payload.clone());
            assert!(prev.is_none(), "duplicate MHT label {label:?}");
        }
        let mut tree =
            SparseMht { nodes: HashMap::new(), leaves, seed, blinding, root: Digest::ZERO };
        let hashed: Vec<(BitString, Digest)> = tree
            .leaves
            .iter()
            .map(|(label, payload)| {
                let path = label.to_bits();
                let h = leaf_hash(&path, payload);
                (path, h)
            })
            .collect();
        tree.root = tree.build_node(&BitString::empty(), hashed);
        tree
    }

    /// Recursively computes (and records) the hash of the node at `path`,
    /// covering the given leaves (all of which have `path` as a prefix).
    fn build_node(&mut self, path: &BitString, leaves: Vec<(BitString, Digest)>) -> Digest {
        let h = match leaves.as_slice() {
            [] => self.phantom(path),
            [(leaf_path, leaf_digest)] if leaf_path.len() == path.len() => {
                debug_assert_eq!(leaf_path, path);
                *leaf_digest
            }
            _ => {
                // Prefix-freeness guarantees no leaf terminates at an inner
                // node, so every remaining leaf has a bit at `depth`.
                let depth = path.len();
                let (ones, zeros): (Vec<_>, Vec<_>) =
                    leaves.into_iter().partition(|(p, _)| p.bit(depth));
                let left = self.build_node(&path.push(false), zeros);
                let right = self.build_node(&path.push(true), ones);
                node_hash(&left, &right)
            }
        };
        self.nodes.insert(path.clone(), h);
        h
    }

    /// The root hash — this is what gets signed and published (§3.6).
    pub fn root(&self) -> Digest {
        self.root
    }

    fn phantom(&self, path: &BitString) -> Digest {
        match self.blinding {
            SiblingBlinding::Blinded => phantom_hash(&self.seed, path),
            SiblingBlinding::Unblinded => unblinded_phantom(path),
        }
    }

    /// Number of instantiated leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Number of instantiated (path) nodes — used by the overhead
    /// accounting in experiment E6.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Produces the selective-disclosure proof for `label`, or `None` if
    /// the label is not instantiated.
    pub fn prove(&self, label: &Label) -> Option<InclusionProof> {
        let payload = self.leaves.get(label)?.clone();
        let path = label.to_bits();
        let mut siblings = Vec::with_capacity(path.len());
        // Walk from the leaf's parent up to the root, collecting the
        // sibling hash at each level (leaf-to-root order).
        for depth in (0..path.len()).rev() {
            let sib_path = path.prefix(depth).push(!path.bit(depth));
            // Sibling may be instantiated or phantom.
            let h = match self.nodes.get(&sib_path) {
                Some(h) => *h,
                None => self.phantom(&sib_path),
            };
            siblings.push(h);
        }
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
    /// Verifies the proof against a published root.
    pub fn verify(&self, root: &Digest) -> bool {
        let path = self.label.to_bits();
        if self.siblings.len() != path.len() {
            return false;
        }
        let mut h = leaf_hash(&path, &self.payload);
        for (i, sib) in self.siblings.iter().enumerate() {
            let depth = path.len() - 1 - i;
            h = if path.bit(depth) { node_hash(sib, &h) } else { node_hash(&h, sib) };
        }
        h == *root
    }

    /// Size of the proof in bytes when serialized (for E6).
    pub fn byte_size(&self) -> usize {
        self.encoded_len()
    }
}

pvr_crypto::wire_struct!(InclusionProof { label, payload, siblings });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
