//! Sequential (complete binary) Merkle trees for batched signing.
//!
//! §3.8: "This overhead can be burdensome during BGP message bursts, but
//! it seems feasible to sign messages in batches, perhaps using a small
//! MHT to reveal batched routes individually." This module is that small
//! MHT: a complete binary tree over an ordered list of items. The sender
//! signs the root once per burst; each receiver gets its item plus a
//! log-size path. Signed BGP convergence signs every export this way
//! (`pvr_bgp::sbgp`, which experiment E5 times): there the leaves are
//! hashed by the caller ([`LeafPrefix`], [`SeqTree::from_leaf_hashes`])
//! and a proof is its present siblings alone ([`SeqTree::siblings`],
//! [`fold`]), the tree's shape being signed beside its root. A verifier
//! holding the tree itself folds a leaf only up to the first node it has
//! already seen reach the root ([`SeqTree::fold_known`]).

use std::sync::LazyLock;

use pvr_crypto::sha256::{sha256_concat, Digest, Midstate, Sha256, BLOCK_LEN};

/// What every leaf hash starts with, setting leaves apart from interior
/// nodes.
const LEAF_TAG: &[u8] = b"pvr.seq.leaf";

/// Leaf hash of `item` at position `index`, domain-separated from inner
/// nodes to preclude second-preimage splicing attacks: SHA-256, padded
/// as usual, of `"pvr.seq.leaf" ‖ index ‖ item`.
pub fn leaf_hash(index: u64, item: &[u8]) -> Digest {
    sha256_concat(&[LEAF_TAG, &index.to_be_bytes(), item])
}

/// The leaves of a batch whose items all start with the same bytes:
/// leaf `index` with tail `tail` is SHA-256, padded as usual, of
/// `"pvr.seq.leaf" ‖ shared`, zero-padded to a block boundary, then
/// `index ‖ tail`. The shared part is absorbed once ([`new`](Self::new));
/// each leaf finishes a copy of that state ([`leaf`](Self::leaf)), one
/// compression for a tail of at most 47 bytes.
///
/// `shared` must be self-delimiting — its length follows from its own
/// bytes — and the tails of one batch equally long, so the padding
/// follows too and two leaves of one kind hash the same bytes only if
/// their shared part, index and tail agree. Like [`leaf_hash`]'s, the
/// first block starts `"pvr.seq.leaf"`, which sets it apart from an
/// interior node's.
#[derive(Clone)]
pub struct LeafPrefix(Sha256);

impl LeafPrefix {
    /// Absorbs `"pvr.seq.leaf" ‖ shared` and the zeros up to the next
    /// block boundary.
    pub fn new(shared: &[u8]) -> LeafPrefix {
        let mut state = Sha256::new();
        state.update(LEAF_TAG).update(shared);
        let over = (LEAF_TAG.len() + shared.len()) % BLOCK_LEN;
        if over > 0 {
            state.update(&[0; BLOCK_LEN][over..]);
        }
        LeafPrefix(state)
    }

    /// The leaf at `index` whose own bytes are `tail`.
    pub fn leaf(&self, index: u64, tail: &[u8]) -> Digest {
        let mut state = self.0.clone();
        state.update(&index.to_be_bytes()).update(tail);
        state.finalize()
    }
}

impl std::fmt::Debug for LeafPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeafPrefix").finish_non_exhaustive()
    }
}

/// The chaining value of the zero-padded block `"pvr.seq.node"`.
static NODE_TAG: LazyLock<Midstate> = LazyLock::new(|| Midstate::new(b"pvr.seq.node"));

/// An interior node: SHA-256 of the tag block `"pvr.seq.node"` (zero
/// padded) and `left ‖ right`, without the padding block — one
/// compression ([`Midstate::compress_pair`]). Every node hashes exactly
/// two blocks, so the dropped length never tells two inputs apart. A
/// leaf is a padded hash whose first block starts `"pvr.seq.leaf"`: a
/// node equal to a leaf needs a collision of the compression function
/// (their first blocks differ), or a chaining value equal to SHA-256's
/// initial one.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    NODE_TAG.compress_pair(left, right)
}

/// A Merkle tree over an ordered batch of byte strings.
pub struct SeqTree {
    /// Every level one after another, the leaf hashes first and the
    /// root last; a level holds half the one below it, rounded up. Odd
    /// nodes are promoted (duplicated-free: an odd last node moves up
    /// unchanged). One allocation per tree.
    nodes: Vec<Digest>,
    /// Number of leaves.
    leaves: usize,
}

/// The widths of a tree's levels over `leaves` leaves, leaves first
/// (none for an empty tree).
fn widths(leaves: usize) -> impl Iterator<Item = usize> {
    let next = |&width: &usize| (width > 1).then(|| width.div_ceil(2));
    std::iter::successors((leaves > 0).then_some(leaves), next)
}

impl SeqTree {
    /// Builds a tree over `items`. Empty batches are allowed (root is a
    /// fixed domain-separated constant).
    pub fn build(items: &[Vec<u8>]) -> SeqTree {
        SeqTree::from_leaf_hashes(items.iter().enumerate().map(|(i, it)| leaf_hash(i as u64, it)))
    }

    /// Builds a tree over leaves already hashed at their positions, with
    /// [`leaf_hash`] or a [`LeafPrefix`]. A leaf's proof is
    /// [`siblings`](Self::siblings).
    pub fn from_leaf_hashes(leaves: impl ExactSizeIterator<Item = Digest>) -> SeqTree {
        let count = leaves.len();
        let mut nodes = Vec::with_capacity(widths(count).sum());
        nodes.extend(leaves);
        debug_assert_eq!(nodes.len(), count, "an exact-size iterator");
        let mut start = 0;
        for width in widths(count).take_while(|&width| width > 1) {
            for left in (start..start + width).step_by(2) {
                let node = if left + 1 < start + width {
                    node_hash(&nodes[left], &nodes[left + 1])
                } else {
                    nodes[left] // odd node promoted unchanged
                };
                nodes.push(node);
            }
            start += width;
        }
        SeqTree { nodes, leaves: count }
    }

    /// The leaf hashes, in order.
    pub fn leaves(&self) -> &[Digest] {
        &self.nodes[..self.leaves]
    }

    /// The root to be signed once per batch.
    pub fn root(&self) -> Digest {
        match self.nodes.last() {
            Some(r) => *r,
            None => sha256_concat(&[b"pvr.seq.empty"]),
        }
    }

    /// Number of leaves in the batch.
    pub fn len(&self) -> usize {
        self.leaves
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.leaves == 0
    }

    /// The hashes a proof for leaf `index` carries, leaf level upward,
    /// skipping the levels where its node is promoted without a sibling:
    /// [`sibling_count`]`(index, len)` of them, which [`fold`] takes back
    /// to the root.
    pub fn siblings(&self, index: usize) -> Siblings<'_> {
        let left = sibling_count(index as u64, self.leaves as u64);
        Siblings { rest: &self.nodes, width: self.leaves, pos: index, left }
    }

    /// Folds leaf hash `leaf` at `index` up through the tree's own
    /// siblings, as [`fold`] folds [`siblings`](Self::siblings), but
    /// stops at the first node on the way — the leaf's own included —
    /// whose bit is set in `known` and whose stored hash the fold
    /// reproduced, and returns `None` there. Otherwise it returns the
    /// root the fold reached. Bit `p` of `known` (word `p / 64`, bit
    /// `p % 64`; words past the end read as zero) stands for the tree's
    /// node `p`, counted leaves first and level by level up to the root,
    /// as [`mark_path`](Self::mark_path) sets it.
    ///
    /// A stop vouches for the leaf only as far as the marks do: the
    /// fold reached a stored node that an earlier fold, checked to the
    /// root, went through or read as a sibling.
    ///
    /// # Panics
    ///
    /// If `index` is not a leaf of the tree.
    pub fn fold_known(&self, index: usize, leaf: Digest, known: &[u64]) -> Option<Digest> {
        assert!(index < self.leaves, "leaf {index} of a {}-leaf tree", self.leaves);
        let (mut h, mut pos, mut start) = (leaf, index, 0);
        for width in widths(self.leaves) {
            let at = start + pos;
            let marked = known.get(at / 64).is_some_and(|word| word >> (at % 64) & 1 == 1);
            if marked && self.nodes[at] == h {
                return None;
            }
            if pos ^ 1 < width {
                let sibling = &self.nodes[start + (pos ^ 1)];
                h = if pos % 2 == 0 { node_hash(&h, sibling) } else { node_hash(sibling, &h) };
            }
            start += width;
            pos /= 2;
        }
        Some(h)
    }

    /// How many 64-bit words [`fold_known`](Self::fold_known)'s bits
    /// take for this tree: one bit per node.
    pub fn known_words(&self) -> usize {
        self.nodes.len().div_ceil(64)
    }

    /// Sets the bits of leaf `index`, of every node above it up to the
    /// root, and of every sibling those nodes have, in `known`
    /// ([`fold_known`](Self::fold_known)'s numbering): every stored hash
    /// a fold of that leaf to the root reads or reproduces. A later fold
    /// that reaches one of them stops there, so no later fold against
    /// the same `known` hashes a node on that path again, and a tree's
    /// folds hash each interior node at most once between them.
    ///
    /// # Panics
    ///
    /// If `index` is not a leaf of the tree, or `known` is shorter than
    /// [`known_words`](Self::known_words).
    pub fn mark_path(&self, index: usize, known: &mut [u64]) {
        assert!(index < self.leaves, "leaf {index} of a {}-leaf tree", self.leaves);
        let (mut pos, mut start) = (index, 0);
        let mut set = |at: usize| known[at / 64] |= 1 << (at % 64);
        for width in widths(self.leaves) {
            set(start + pos);
            if pos ^ 1 < width {
                set(start + (pos ^ 1));
            }
            start += width;
            pos /= 2;
        }
    }
}

/// The sibling hashes of one leaf, from [`SeqTree::siblings`].
pub struct Siblings<'a> {
    /// The tree's nodes from the current level up.
    rest: &'a [Digest],
    /// The current level's width.
    width: usize,
    /// The leaf's ancestor's position on the current level.
    pos: usize,
    /// Siblings not yet yielded.
    left: usize,
}

impl Iterator for Siblings<'_> {
    type Item = Digest;

    fn next(&mut self) -> Option<Digest> {
        while self.left > 0 {
            let (level, above) = self.rest.split_at(self.width);
            let sibling = level.get(self.pos ^ 1);
            (self.rest, self.width, self.pos) = (above, self.width.div_ceil(2), self.pos / 2);
            if let Some(&sibling) = sibling {
                self.left -= 1;
                return Some(sibling);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Siblings<'_> {}

/// How many sibling hashes the proof of leaf `index` in a tree of
/// `size` leaves carries: one per level where its node has a sibling.
/// Zero outside the tree.
pub fn sibling_count(index: u64, size: u64) -> usize {
    let (mut pos, mut width, mut count) = (index, size, 0);
    if index >= size {
        return 0;
    }
    while width > 1 {
        count += usize::from(pos ^ 1 < width);
        pos /= 2;
        width = width.div_ceil(2);
    }
    count
}

/// The root that leaf hash `leaf` at `index` in a tree of `size` leaves
/// folds to through `siblings` ([`SeqTree::siblings`]'s order), or
/// `None` when the index is outside the tree or the sibling count does
/// not match the shape.
pub fn fold(
    index: u64,
    size: u64,
    leaf: Digest,
    siblings: impl IntoIterator<Item = Digest>,
) -> Option<Digest> {
    if index >= size {
        return None;
    }
    let mut siblings = siblings.into_iter();
    let (mut h, mut pos, mut width) = (leaf, index, size);
    while width > 1 {
        if pos ^ 1 < width {
            let s = siblings.next()?;
            h = if pos % 2 == 0 { node_hash(&h, &s) } else { node_hash(&s, &h) };
        }
        pos /= 2;
        width = width.div_ceil(2);
    }
    siblings.next().is_none().then_some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pvr_crypto::drbg::HmacDrbg;
    use pvr_crypto::sha256::sha256;

    fn batch(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("update-{i}").into_bytes()).collect()
    }

    /// Leaf `index`'s path, leaf first and root last: each node's
    /// position in `fold_known`'s numbering, the hash `leaf` folds to
    /// there through [`SeqTree::siblings`], and the position of the
    /// node's sibling, which the fold hashes in to go up a level (none
    /// where the node is promoted, and at the root).
    fn path(t: &SeqTree, index: usize, leaf: Digest) -> Vec<(usize, Digest, Option<usize>)> {
        let mut siblings = t.siblings(index);
        let (mut h, mut pos, mut start, mut path) = (leaf, index, 0, Vec::new());
        for width in widths(t.leaves) {
            let sibling = (pos ^ 1 < width).then(|| start + (pos ^ 1));
            path.push((start + pos, h, sibling));
            if sibling.is_some() {
                let s = siblings.next().expect("a sibling per level that has one");
                h = if pos % 2 == 0 { node_hash(&h, &s) } else { node_hash(&s, &h) };
            }
            start += width;
            pos /= 2;
        }
        path
    }

    /// The interior-node hash is a format: pinned to a vector from an
    /// independent implementation of the compression function, which
    /// `pvr-crypto` also checks against its streaming hasher.
    #[test]
    fn node_hash_is_one_compression_after_the_tag_block() {
        let (left, right) = (sha256(b"left"), sha256(b"right"));
        assert_eq!(
            node_hash(&left, &right).to_hex(),
            "ffaea9dd3fd8221d448e9ed8fe1d8f9bc929860a2f7bd0d2c7b8bacfce0311c4"
        );
        assert_ne!(node_hash(&right, &left), node_hash(&left, &right));
        assert_ne!(node_hash(&left, &right), sha256_concat(&[b"pvr.seq.node", &left.0, &right.0]));
    }

    /// The shared-prefix leaf is a format: pinned to a vector computed
    /// by Python's `hashlib` over `"pvr.seq.leaf" ‖ shared`, zero-padded
    /// to a block boundary, then `index ‖ tail`.
    #[test]
    fn a_prefixed_leaf_is_sha256_of_the_padded_prefix_and_its_tail() {
        let (shared, tail) = (b"shared".repeat(11), b"target and its salt!");
        assert_eq!(
            LeafPrefix::new(&shared).leaf(5, tail).to_hex(),
            "b4dc589fdc68868ab07aa4eb1656303466dbc72317eda29460f123e00d54aa8b"
        );
    }

    /// Every index of every tree size folds back to the root through
    /// its siblings.
    #[test]
    fn every_leaf_folds_to_the_root_all_sizes() {
        // Cover powers of two, odd sizes, and 1.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
            let items = batch(n);
            let t = SeqTree::build(&items);
            for (i, item) in items.iter().enumerate() {
                let leaf = leaf_hash(i as u64, item);
                assert_eq!(
                    fold(i as u64, n as u64, leaf, t.siblings(i)),
                    Some(t.root()),
                    "{i} of {n}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_folds_to_nothing() {
        let t = SeqTree::build(&batch(4));
        let leaf = leaf_hash(4, b"update-4");
        assert_eq!(fold(4, 4, leaf, t.siblings(3)), None);
        assert_eq!(fold(100, 4, leaf, []), None);
        assert_eq!(sibling_count(4, 4), 0);
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
        let reached = fold(0, 8, leaf_hash(0, b"update-0"), t1.siblings(0));
        assert_eq!(reached, Some(t1.root()));
        assert_ne!(reached, Some(t2.root()));
    }

    #[test]
    fn tampered_item_rejected() {
        let t = SeqTree::build(&batch(8));
        let reached = fold(3, 8, leaf_hash(3, b"forged"), t.siblings(3));
        assert!(reached.is_some_and(|root| root != t.root()));
    }

    #[test]
    fn reindexed_item_rejected() {
        // The same payload at a different claimed index must fail: leaf
        // hashes bind the position.
        let items = vec![b"same".to_vec(), b"same".to_vec()];
        let t = SeqTree::build(&items);
        assert_ne!(leaf_hash(0, b"same"), leaf_hash(1, b"same"));
        let reached = fold(1, 2, leaf_hash(1, b"same"), t.siblings(0));
        assert!(reached.is_some_and(|root| root != t.root()));
    }

    #[test]
    fn proof_depth_is_logarithmic() {
        let t = SeqTree::build(&batch(1024));
        assert_eq!(t.siblings(512).len(), 10);
    }

    proptest! {
        /// A prefixed leaf is streaming SHA-256 over the same bytes, for
        /// shared parts on both sides of a block boundary.
        #[test]
        fn prop_a_prefixed_leaf_is_the_streamed_hash(
            shared in proptest::collection::vec(any::<u8>(), 0..140),
            index in any::<u64>(),
            tail in proptest::collection::vec(any::<u8>(), 0..60),
        ) {
            let padding = vec![0; (BLOCK_LEN - (LEAF_TAG.len() + shared.len()) % BLOCK_LEN) % BLOCK_LEN];
            let mut streamed = Sha256::new();
            streamed.update(LEAF_TAG).update(&shared).update(&padding);
            streamed.update(&index.to_be_bytes()).update(&tail);
            let prefix = LeafPrefix::new(&shared);
            prop_assert_eq!(prefix.leaf(index, &tail), streamed.finalize());
            prop_assert_eq!(prefix.leaf(index, &tail), prefix.clone().leaf(index, &tail));
        }

        /// A tree over hashed leaves has `build`'s root, and its present
        /// siblings fold each leaf back to the root with exactly that
        /// many hashes. (Another size can share the shape a proof walks,
        /// which is why a batch signs its size beside the root.)
        #[test]
        fn prop_hashed_leaves_fold_to_the_root(n in 1usize..80) {
            let items = batch(n);
            let built = SeqTree::build(&items);
            let leaves: Vec<Digest> =
                items.iter().enumerate().map(|(i, it)| leaf_hash(i as u64, it)).collect();
            let t = SeqTree::from_leaf_hashes(leaves.iter().copied());
            prop_assert_eq!(t.leaves(), leaves.as_slice());
            prop_assert_eq!(t.root(), built.root());
            prop_assert_eq!(t.len(), n);
            for (i, item) in items.iter().enumerate() {
                let siblings: Vec<Digest> = t.siblings(i).collect();
                prop_assert_eq!(&siblings, &built.siblings(i).collect::<Vec<_>>());
                prop_assert_eq!(siblings.len(), sibling_count(i as u64, n as u64));
                prop_assert_eq!(t.siblings(i).len(), siblings.len());
                let leaf = leaf_hash(i as u64, item);
                let (index, size) = (i as u64, n as u64);
                prop_assert_eq!(fold(index, size, leaf, siblings.iter().copied()), Some(t.root()));
                prop_assert_eq!(fold(index, size, leaf, siblings.iter().copied().skip(1)).is_some(), siblings.is_empty());
                let longer = siblings.iter().copied().chain([leaf]);
                prop_assert_eq!(fold(index, size, leaf, longer), None);
                prop_assert_eq!(fold(size, size, leaf, siblings.iter().copied()), None);
            }
        }

        /// `fold_known` with nothing known is `fold`. Leaves verified
        /// one by one in a shuffled order, each marking its path and the
        /// path's siblings, reach the root on the first and stop on every
        /// later one, exactly where the reference walk meets a marked
        /// node whose stored hash the fold reproduced; between them the
        /// folds hash at most `n − 1` interior nodes, each at most once.
        /// A leaf hash with one bit flipped never stops early.
        #[test]
        fn prop_known_nodes_stop_the_fold(n in 1usize..=70, seed in any::<u64>()) {
            let items = batch(n);
            let leaves: Vec<Digest> =
                items.iter().enumerate().map(|(i, it)| leaf_hash(i as u64, it)).collect();
            let t = SeqTree::from_leaf_hashes(leaves.iter().copied());
            for (i, &leaf) in leaves.iter().enumerate() {
                let folded = fold(i as u64, n as u64, leaf, t.siblings(i));
                prop_assert_eq!(t.fold_known(i, leaf, &[]), folded);
            }
            let mut order: Vec<usize> = (0..n).collect();
            HmacDrbg::from_u64_labeled(seed, "seqtree order").shuffle(&mut order);
            let marked = |known: &[u64], at: usize| known.get(at / 64).is_some_and(|w| w >> (at % 64) & 1 == 1);
            let mut known = vec![0; t.known_words()];
            let mut hashed = Vec::new();
            for (k, &i) in order.iter().enumerate() {
                let path = path(&t, i, leaves[i]);
                let stop = path.iter().position(|&(at, h, _)| marked(&known, at) && t.nodes[at] == h);
                match t.fold_known(i, leaves[i], &known) {
                    Some(reached) => {
                        prop_assert_eq!(reached, t.root());
                        prop_assert!(stop.is_none() && k == 0, "leaf {} walked past a known node", i);
                    }
                    None => prop_assert!(stop.is_some() && k > 0, "leaf {} stopped unmarked", i),
                }
                // Up to its stop, the fold hashed each node with a
                // sibling into its parent, the next node on the path.
                let steps = path.windows(2).take(stop.unwrap_or(path.len()));
                hashed.extend(steps.filter(|step| step[0].2.is_some()).map(|step| step[1].0));
                t.mark_path(i, &mut known);
                let on_path = |&(at, _, sibling): &(usize, Digest, Option<usize>)| {
                    marked(&known, at) && sibling.is_none_or(|s| marked(&known, s))
                };
                prop_assert!(path.iter().all(on_path), "leaf {} left its path unmarked", i);
            }
            let count = hashed.len();
            prop_assert!(count < n, "{} interior hashes for {} leaves", count, n);
            hashed.sort_unstable();
            hashed.dedup();
            prop_assert_eq!(hashed.len(), count, "an interior node hashed twice");
            prop_assert!(known.len() * 64 >= t.nodes.len());
            for (i, &leaf) in leaves.iter().enumerate() {
                let mut flipped = leaf;
                flipped.0[i % 32] ^= 1 << (i % 8);
                let reached = t.fold_known(i, flipped, &known);
                prop_assert!(reached.is_some_and(|root| root != t.root()), "flipped leaf {} stopped", i);
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
