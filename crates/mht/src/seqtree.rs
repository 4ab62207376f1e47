//! Sequential (complete binary) Merkle trees for batched signing.
//!
//! §3.8: "This overhead can be burdensome during BGP message bursts, but
//! it seems feasible to sign messages in batches, perhaps using a small
//! MHT to reveal batched routes individually." This module is that small
//! MHT: a complete binary tree over an ordered list of items. The sender
//! signs the root once per burst; each receiver gets its item plus a
//! log-size path. Experiment E5 measures the amortization.

use pvr_crypto::encoding::Wire;
use pvr_crypto::sha256::{sha256_concat, Digest};

/// Leaf hash, domain-separated from inner nodes to preclude
/// second-preimage splicing attacks.
fn leaf_hash(index: u64, item: &[u8]) -> Digest {
    sha256_concat(&[b"pvr.seq.leaf", &index.to_be_bytes(), item])
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[b"pvr.seq.node", left.as_bytes(), right.as_bytes()])
}

/// A Merkle tree over an ordered batch of byte strings.
pub struct SeqTree {
    /// levels\[0\] = leaf hashes, last level = [root]. Odd nodes are
    /// promoted (duplicated-free: an odd last node moves up unchanged).
    levels: Vec<Vec<Digest>>,
    items: Vec<Vec<u8>>,
}

impl SeqTree {
    /// Builds a tree over `items`. Empty batches are allowed (root is a
    /// fixed domain-separated constant).
    pub fn build(items: &[Vec<u8>]) -> SeqTree {
        let leaves: Vec<Digest> =
            items.iter().enumerate().map(|(i, it)| leaf_hash(i as u64, it)).collect();
        let mut levels = vec![leaves];
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                match pair {
                    [l, r] => next.push(node_hash(l, r)),
                    [l] => next.push(*l), // odd node promoted unchanged
                    _ => unreachable!(),
                }
            }
            levels.push(next);
        }
        SeqTree { levels, items: items.to_vec() }
    }

    /// The root to be signed once per batch.
    pub fn root(&self) -> Digest {
        match self.levels.last().and_then(|l| l.first()) {
            Some(r) => *r,
            None => sha256_concat(&[b"pvr.seq.empty"]),
        }
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Builds the proof that item `index` is in the batch.
    pub fn prove(&self, index: usize) -> Option<SeqProof> {
        if index >= self.items.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut pos = index;
        // All levels except the root level contribute a sibling when one
        // exists (odd promoted nodes have none at that level).
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sib = pos ^ 1;
            if sib < level.len() {
                siblings.push(Some(level[sib]));
            } else {
                siblings.push(None);
            }
            pos /= 2;
        }
        Some(SeqProof { index: index as u64, item: self.items[index].clone(), siblings })
    }
}

/// Proof that one item of a signed batch has a given value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeqProof {
    /// Position of the item in the batch.
    pub index: u64,
    /// The item itself.
    pub item: Vec<u8>,
    /// Sibling hashes from leaf level upward; `None` where the node was
    /// promoted without a sibling.
    pub siblings: Vec<Option<Digest>>,
}

impl SeqProof {
    /// Verifies against the signed batch root.
    pub fn verify(&self, root: &Digest) -> bool {
        let mut h = leaf_hash(self.index, &self.item);
        let mut pos = self.index as usize;
        for sib in &self.siblings {
            h = match sib {
                Some(s) if pos % 2 == 0 => node_hash(&h, s),
                Some(s) => node_hash(s, &h),
                None => h, // promoted odd node
            };
            pos /= 2;
        }
        h == *root
    }

    /// Serialized size in bytes (for the E5 overhead accounting).
    pub fn byte_size(&self) -> usize {
        self.encoded_len()
    }
}

pvr_crypto::wire_struct!(SeqProof { index, item, siblings });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn batch(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("update-{i}").into_bytes()).collect()
    }

    #[test]
    fn every_item_provable_all_sizes() {
        // Cover powers of two, odd sizes, and 1.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
            let t = SeqTree::build(&batch(n));
            for i in 0..n {
                let p = t.prove(i).unwrap();
                assert!(p.verify(&t.root()), "item {i} of {n}");
                assert_eq!(p.item, format!("update-{i}").into_bytes());
            }
        }
    }

    #[test]
    fn out_of_range_unprovable() {
        let t = SeqTree::build(&batch(4));
        assert!(t.prove(4).is_none());
        assert!(t.prove(100).is_none());
    }

    #[test]
    fn empty_batch_has_stable_root() {
        let a = SeqTree::build(&[]);
        let b = SeqTree::build(&[]);
        assert_eq!(a.root(), b.root());
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn wrong_root_rejected() {
        let t1 = SeqTree::build(&batch(8));
        let t2 = SeqTree::build(&batch(9));
        let p = t1.prove(0).unwrap();
        assert!(!p.verify(&t2.root()));
    }

    #[test]
    fn tampered_item_rejected() {
        let t = SeqTree::build(&batch(8));
        let mut p = t.prove(3).unwrap();
        p.item = b"forged".to_vec();
        assert!(!p.verify(&t.root()));
    }

    #[test]
    fn reindexed_item_rejected() {
        // The same payload at a different claimed index must fail: leaf
        // hashes bind the position.
        let items = vec![b"same".to_vec(), b"same".to_vec()];
        let t = SeqTree::build(&items);
        let mut p = t.prove(0).unwrap();
        p.index = 1;
        assert!(!p.verify(&t.root()));
    }

    #[test]
    fn proof_depth_is_logarithmic() {
        let t = SeqTree::build(&batch(1024));
        let p = t.prove(512).unwrap();
        assert_eq!(p.siblings.len(), 10);
    }

    #[test]
    fn wire_round_trip() {
        let t = SeqTree::build(&batch(5));
        let p = t.prove(4).unwrap();
        let back: SeqProof = pvr_crypto::decode_exact(&p.to_wire()).unwrap();
        assert_eq!(back, p);
        assert!(back.verify(&t.root()));
    }

    proptest! {
        #[test]
        fn prop_all_verify(n in 1usize..80) {
            let t = SeqTree::build(&batch(n));
            for i in 0..n {
                prop_assert!(t.prove(i).unwrap().verify(&t.root()));
            }
        }

        #[test]
        fn prop_order_matters(mut items in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..8), 2..10)) {
            let t1 = SeqTree::build(&items);
            items.swap(0, 1);
            prop_assume!(items[0] != items[1]);
            let t2 = SeqTree::build(&items);
            prop_assert_ne!(t1.root(), t2.root());
        }
    }
}
