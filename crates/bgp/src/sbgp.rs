//! S-BGP-style route attestations.
//!
//! The paper builds on secure BGP (§1, citing Kent et al. \[13\]): "Secure
//! variants of BGP, such as S-BGP, have been proposed as mechanisms for
//! ISPs to check that a routing announcement does correspond to the
//! claimed path and destination" — and PVR's condition 1 (§3.2) relies on
//! exactly this: "To support condition 1, we can sign all the routing
//! announcements."
//!
//! Construction: when AS `s` announces prefix `p` with path `P` to
//! neighbor `t`, it appends an attestation covering `(p, P, t)`. The
//! chain of attestations, one per AS on the path, proves that every hop
//! authorized the announcement to the next hop, so a receiver can check
//! that the route "was provided to A by some N_i".
//!
//! One export, one signature (§3.8: "it seems feasible to sign messages
//! in batches, perhaps using a small MHT to reveal batched routes
//! individually"). A router announcing one route to `n` neighbors makes
//! `n` attestations at once, the leaves of a [`SeqTree`] in
//! neighbor-ASN order, and signs `n ‖ root` once. Each neighbor receives
//! its own leaf's fields, its position, the sibling hashes that take
//! the leaf to the root, and the signature. A leaf commits to:
//!
//! * the prefix, the path, the target and the signer, as S-BGP's
//!   per-neighbor signature did;
//! * a per-leaf salt, so a receiver cannot hash candidate targets
//!   against its siblings to learn where else the route went;
//! * the digest of the attestation it extends, so breaking any byte
//!   below an attestation breaks that attestation too (BGPsec, RFC
//!   8205, signs over the previous signature segment for the same
//!   reason).
//!
//! Not covered by signatures (as in real S-BGP): LOCAL_PREF, MED, and
//! communities — they are non-transitive or locally meaningful.
//!
//! A router's own exports are signed when first read, not when made;
//! on the cores its network's shards leave free, helper threads sign
//! them ahead of the readers (`SignQueue`). PKCS#1 v1.5 signing is
//! deterministic, so who computes a signature, and when, changes no
//! byte.

use crate::path::AsPath;
use crate::route::Route;
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::rsa::RsaSignature;
use pvr_crypto::sha256::{sha256_concat, Digest, Sha256};
use pvr_mht::seqtree::{self, LeafPrefix, SeqTree, Siblings};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Bytes of an attestation's salt.
pub const SALT_LEN: usize = 16;

/// Random bytes mixed into one leaf of an export, hiding the leaf's
/// target from the export's other recipients.
pub type Salt = [u8; SALT_LEN];

/// The salt of a batch of one ([`SignedRoute::originate`],
/// [`SignedRoute::extend`], [`Attestation::create`]): a batch without
/// siblings has no co-recipient to hide.
const LONE_SALT: Salt = [0; SALT_LEN];

/// Domain tags: what a leaf commits to, what the signature covers, an
/// attestation's digest, and a root signature's memo key. Short, so the
/// shared part of a leaf of a path up to fifteen ASes long, and a memo
/// key, hash in two SHA-256 blocks.
const LEAF_TAG: &[u8] = b"sbgp.leaf";
const ROOT_TAG: &[u8] = b"sbgp.root";
const NODE_TAG: &[u8] = b"sbgp.node";
const SIG_TAG: &[u8] = b"sbgp.sig";

/// The length of [`root_message`].
const ROOT_MESSAGE_LEN: usize = ROOT_TAG.len() + 4 + 32;

/// One hop's attestation: its leaf of the signer's export batch, with
/// the proof that takes the leaf to the signed root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attestation {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The path at signing time, nearest AS (the signer) first.
    pub path: AsPath,
    /// The AS the announcement was directed to.
    pub target: Asn,
    /// The signing AS (must equal `path.first_as()`).
    pub signer: Asn,
    /// This leaf's salt.
    pub salt: Salt,
    /// This leaf's position in the batch.
    pub index: u32,
    /// How many leaves the batch has.
    pub size: u32,
    /// The sibling hashes from the leaf level up, one per level where
    /// the leaf's node has a sibling.
    pub siblings: Vec<Digest>,
    /// The signer's signature over the batch's size and root.
    pub signature: RsaSignature,
}

// A chain's nodes encode through this line too (`ChainNode::attestation`);
// only their length sum (`ChainNode::encoded_len`) restates the fields.
pvr_crypto::wire_struct!(Attestation {
    prefix,
    path,
    target,
    signer,
    salt,
    index,
    size,
    siblings,
    signature
});

impl Attestation {
    /// Creates `identity`'s attestation for announcing (`prefix`,
    /// `path`) to `target` on top of `below`, as a batch of one.
    pub fn create(
        identity: &Identity,
        prefix: Prefix,
        path: &AsPath,
        target: Asn,
        below: &AttestationChain,
    ) -> Attestation {
        below.extended_now(identity, prefix, path, target).newest().expect("one attestation")
    }
}

/// The part of a leaf every leaf of one export shares, absorbed: the
/// tag, the prefix, the path, the signer and the digest of the
/// attestation the export extends, written into `buf` (cleared first).
/// The path is length-prefixed, so these bytes delimit themselves, as a
/// [`LeafPrefix`] needs.
fn leaf_prefix(
    buf: &mut Vec<u8>,
    prefix: Prefix,
    path: &AsPath,
    signer: Asn,
    parent: &Digest,
) -> LeafPrefix {
    buf.clear();
    buf.extend_from_slice(LEAF_TAG);
    prefix.encode(buf);
    path.encode(buf);
    signer.encode(buf);
    buf.extend_from_slice(parent.as_bytes());
    LeafPrefix::new(buf)
}

/// The leaf at `index` of an export whose shared part `prefix` absorbed:
/// `index ‖ target ‖ salt` finish it, 28 bytes, one compression.
fn leaf_hash(prefix: &LeafPrefix, index: u32, fields: &Fields<'_>) -> Digest {
    let mut tail = [0; 4 + SALT_LEN];
    tail[..4].copy_from_slice(&fields.target.0.to_be_bytes());
    tail[4..].copy_from_slice(fields.salt);
    prefix.leaf(u64::from(index), &tail)
}

/// A leaf rebuilt alone, shared part included, from its fields and the
/// digest of the attestation it extends.
fn lone_leaf(buf: &mut Vec<u8>, index: u32, fields: &Fields<'_>, parent: &Digest) -> Digest {
    let prefix = leaf_prefix(buf, fields.prefix, fields.path, fields.signer, parent);
    leaf_hash(&prefix, index, fields)
}

/// What a batch's signature covers: its size and its root, so a proof
/// cannot claim another tree shape.
fn root_message(size: u32, root: &Digest) -> [u8; ROOT_MESSAGE_LEN] {
    let mut message = [0; ROOT_MESSAGE_LEN];
    let (tag, rest) = message.split_at_mut(ROOT_TAG.len());
    tag.copy_from_slice(ROOT_TAG);
    rest[..4].copy_from_slice(&size.to_be_bytes());
    rest[4..].copy_from_slice(root.as_bytes());
    message
}

/// The part of an attestation's digest one export's leaves share: the
/// tag, the signature, and the batch's size and root ([`digest_leaf`]
/// adds the leaf).
fn digest_shared(signature: &RsaSignature, size: u32, root: &Digest) -> Sha256 {
    let mut shared = Vec::with_capacity(128);
    shared.extend_from_slice(NODE_TAG);
    signature.encode(&mut shared);
    size.encode(&mut shared);
    shared.extend_from_slice(root.as_bytes());
    let mut hasher = Sha256::new();
    hasher.update(&shared);
    hasher
}

/// An attestation's digest: [`digest_shared`] finished with its leaf
/// hash. The leaf commits to the fields, the salt, the position and the
/// digest of the attestation below; the root commits to the siblings
/// (it is what they take the leaf to). So a digest covers every byte of
/// the attestation and, through its parent's, every attestation below
/// it: it is the [`VerifyCache`] key and what the next hop's leaf
/// binds. A batch hashes the shared part once.
fn digest_leaf(mut shared: Sha256, leaf: &Digest) -> Digest {
    shared.update(leaf.as_bytes());
    shared.finalize()
}

/// The digest of `att` on top of an attestation whose digest is `parent`.
/// Its proof is folded here; one of the wrong shape folds to no root,
/// and a hash of its siblings stands in for one.
fn attestation_digest(parent: &Digest, att: &Attestation) -> Digest {
    let leaf = lone_leaf(&mut Vec::with_capacity(128), att.index, &Fields::of(att), parent);
    let siblings = att.siblings.iter().copied();
    let root = seqtree::fold(u64::from(att.index), u64::from(att.size), leaf, siblings)
        .unwrap_or_else(|| sha256_concat(&[NODE_TAG, &att.siblings.to_wire()]));
    digest_leaf(digest_shared(&att.signature, att.size, &root), &leaf)
}

/// A root signature's [`VerifyCache`] key, beside its signer: a hash of
/// the signed message and the signature, so a forged signature over a
/// genuine root is another key.
fn root_key(message: &[u8], signature: &RsaSignature) -> [u8; 32] {
    sha256_concat(&[SIG_TAG, message, &signature.0]).0
}

/// The digest a node on top of `parent` binds.
fn parent_digest(parent: Option<&Arc<ChainNode>>) -> Digest {
    parent.map_or(Digest::ZERO, |node| node.digest())
}

/// A persistent (structurally shared) attestation chain.
///
/// Propagating a signed route appends exactly one attestation to the
/// chain it arrived with, so chains across a network form a tree of
/// shared prefixes. The pre-E14 representation (`Vec<Attestation>`)
/// deep-copied the whole prefix — path slices and signature bytes — at
/// every hop and for every per-neighbor clone. This cons list shares
/// the parent instead, and every clone anywhere downstream is a
/// reference-count bump.
///
/// The newest attestation (last hop's) is the list head; origin-first
/// order — the canonical wire and verification order — is recovered by
/// collecting node references, which chains are short enough (path
/// length) to make free compared to one RSA verify.
///
/// Attestations are handed out by value ([`newest`](Self::newest),
/// [`origin`](Self::origin), [`to_vec`](Self::to_vec)): a node's batch
/// may not be signed yet, and reading one signs it.
#[derive(Clone, Default)]
pub struct AttestationChain(Option<Arc<ChainNode>>);

/// One attestation of a chain.
enum ChainNode {
    /// Leaf `index` of an export made in this process: fields, salt,
    /// proof and signature all live in the shared batch, which is
    /// signed — tree, signature and every leaf's digest — when first
    /// read, by whichever thread reads first.
    Made { batch: Arc<Batch>, index: u32 },
    /// A decoded or hand-built attestation, proof and signature
    /// included, with its digest computed when it was pushed.
    Given(Box<Given>),
}

struct Given {
    att: Attestation,
    parent: Option<Arc<ChainNode>>,
    /// Number of attestations up to and including this one.
    len: u32,
    digest: Digest,
}

/// One export's attestations: the fields its leaves share, a target and
/// a salt per leaf, and — once signed — the tree, the signature and
/// each leaf's digest. The job is the fields plus the key, so a batch
/// owes its signature for the cost of one pointer.
struct Batch {
    prefix: Prefix,
    /// The path announced, the signer first.
    path: AsPath,
    /// The chain every leaf extends; `None` for an origination.
    parent: Option<Arc<ChainNode>>,
    /// Number of attestations up to and including a leaf.
    len: u32,
    /// One `(target, salt)` per leaf, targets ascending.
    leaves: Box<[(Asn, Salt)]>,
    signed: OnceLock<Signed>,
    /// The signer's identity while the signature may still be owed;
    /// `None` for a batch signed when made.
    key: Option<Arc<Identity>>,
}

struct Signed {
    tree: SeqTree,
    signature: RsaSignature,
    /// Each leaf's digest ([`digest_leaf`]).
    digests: Box<[Digest]>,
    /// The [`VerifyCache`] key of the signature over the tree's root.
    root_key: [u8; 32],
}

/// The fields a leaf shares with the route it attests.
struct Fields<'a> {
    prefix: Prefix,
    path: &'a AsPath,
    target: Asn,
    signer: Asn,
    salt: &'a Salt,
}

impl Fields<'_> {
    fn of(att: &Attestation) -> Fields<'_> {
        Fields {
            prefix: att.prefix,
            path: &att.path,
            target: att.target,
            signer: att.signer,
            salt: &att.salt,
        }
    }
}

/// What takes a leaf to its signed root.
struct Proof<'a> {
    index: u32,
    size: u32,
    siblings: ProofSiblings<'a>,
    signature: &'a RsaSignature,
}

enum ProofSiblings<'a> {
    Tree(Siblings<'a>),
    Listed(std::slice::Iter<'a, Digest>),
}

impl Iterator for ProofSiblings<'_> {
    type Item = Digest;

    fn next(&mut self) -> Option<Digest> {
        match self {
            ProofSiblings::Tree(tree) => tree.next(),
            ProofSiblings::Listed(listed) => listed.next().copied(),
        }
    }
}

impl Batch {
    fn new(
        below: &AttestationChain,
        prefix: Prefix,
        path: AsPath,
        leaves: Box<[(Asn, Salt)]>,
        key: Option<Arc<Identity>>,
    ) -> Arc<Batch> {
        debug_assert!(leaves.windows(2).all(|pair| pair[0].0 < pair[1].0), "targets ascend");
        let len = below.len() as u32 + 1;
        let parent = below.0.clone();
        Arc::new(Batch { prefix, path, parent, len, leaves, signed: OnceLock::new(), key })
    }

    /// The chain ending in leaf `index`.
    fn node(self: &Arc<Batch>, index: usize) -> AttestationChain {
        let node = ChainNode::Made { batch: Arc::clone(self), index: index as u32 };
        AttestationChain(Some(Arc::new(node)))
    }

    fn signer(&self) -> Asn {
        self.path.first_as().expect("an export's path starts with its signer")
    }

    fn size(&self) -> u32 {
        self.leaves.len() as u32
    }

    fn fields(&self, index: usize) -> Fields<'_> {
        Fields {
            prefix: self.prefix,
            path: &self.path,
            target: self.leaves[index].0,
            signer: self.signer(),
            salt: &self.leaves[index].1,
        }
    }

    /// The tree, signature and digests, signed here if this is the
    /// batch's first read.
    fn signed(&self) -> &Signed {
        self.signed.get_or_init(|| {
            self.sign(self.key.as_deref().expect("a batch without a signature holds its key"))
        })
    }

    fn is_signed(&self) -> bool {
        self.signed.get().is_some()
    }

    /// The leaves' shared part, absorbed ([`leaf_prefix`]).
    fn leaf_prefix(&self, buf: &mut Vec<u8>) -> LeafPrefix {
        let parent = parent_digest(self.parent.as_ref());
        leaf_prefix(buf, self.prefix, &self.path, self.signer(), &parent)
    }

    /// Hashes the leaves — their shared part once — builds the tree,
    /// signs its size and root once, and digests every leaf's
    /// attestation.
    fn sign(&self, identity: &Identity) -> Signed {
        debug_assert_eq!(Asn(identity.id() as u32), self.signer(), "signer must head the path");
        let prefix = self.leaf_prefix(&mut Vec::with_capacity(128));
        let tree = SeqTree::from_leaf_hashes(
            (0..self.leaves.len()).map(|i| leaf_hash(&prefix, i as u32, &self.fields(i))),
        );
        let root = tree.root();
        let message = root_message(self.size(), &root);
        let signature = identity.sign(&message);
        let shared = digest_shared(&signature, self.size(), &root);
        let digests = tree.leaves().iter().map(|leaf| digest_leaf(shared.clone(), leaf)).collect();
        let root_key = root_key(&message, &signature);
        Signed { tree, signature, digests, root_key }
    }

    /// [`ChainNode::signature_holds`] for leaf `index`, walking only as
    /// far up the tree as `known` needs. The leaf is rebuilt from its own
    /// target and salt on top of the leaves' shared part, which `known`
    /// absorbs once for this tree's root and signature. The fold goes
    /// through the batch's own tree and stops at a node `known` holds
    /// for that root and signature: a stored node that an earlier fold,
    /// through the same stored siblings, computed or hashed in as a
    /// sibling on its way to a root whose signature `root_verdict`
    /// accepted. Otherwise the root reached goes to `root_verdict` as in
    /// the full walk. The leaf's path and its siblings are marked after
    /// a stop, and after a fold to the stored root that `root_verdict`
    /// accepted.
    fn leaf_holds(
        &self,
        index: usize,
        buf: &mut Vec<u8>,
        known: &mut KnownNodes,
        root_verdict: impl FnOnce(Asn, &[u8], &RsaSignature) -> bool,
    ) -> bool {
        let Signed { tree, signature, root_key, .. } = self.signed();
        let (signer, root) = (self.signer(), tree.root());
        let (prefix, bits) = known.tree((signer, *root_key), tree, || self.leaf_prefix(buf));
        let leaf = leaf_hash(prefix, index as u32, &self.fields(index));
        let (holds, mark) = match tree.fold_known(index, leaf, bits) {
            None => (true, true),
            Some(reached) => {
                let holds = root_verdict(signer, &root_message(self.size(), &reached), signature);
                (holds, holds && reached == root)
            }
        };
        if mark {
            tree.mark_path(index, bits);
        }
        holds
    }

    fn attestation(&self, index: usize, tree: &SeqTree, signature: &RsaSignature) -> Attestation {
        let Fields { prefix, path, target, signer, salt } = self.fields(index);
        Attestation {
            prefix,
            path: path.clone(),
            target,
            signer,
            salt: *salt,
            index: index as u32,
            size: self.size(),
            siblings: tree.siblings(index).collect(),
            signature: signature.clone(),
        }
    }
}

impl ChainNode {
    fn parent(&self) -> Option<&Arc<ChainNode>> {
        match self {
            ChainNode::Made { batch, .. } => batch.parent.as_ref(),
            ChainNode::Given(given) => given.parent.as_ref(),
        }
    }

    fn len(&self) -> u32 {
        match self {
            ChainNode::Made { batch, .. } => batch.len,
            ChainNode::Given(given) => given.len,
        }
    }

    fn fields(&self) -> Fields<'_> {
        match self {
            ChainNode::Made { batch, index } => batch.fields(*index as usize),
            ChainNode::Given(given) => Fields::of(&given.att),
        }
    }

    /// The node's proof, signing its batch if owed.
    fn proof(&self) -> Proof<'_> {
        match self {
            ChainNode::Made { batch, index } => {
                let signed = batch.signed();
                Proof {
                    index: *index,
                    size: batch.size(),
                    siblings: ProofSiblings::Tree(signed.tree.siblings(*index as usize)),
                    signature: &signed.signature,
                }
            }
            ChainNode::Given(given) => Proof {
                index: given.att.index,
                size: given.att.size,
                siblings: ProofSiblings::Listed(given.att.siblings.iter()),
                signature: &given.att.signature,
            },
        }
    }

    /// The node's digest ([`digest_leaf`]), signing its batch if owed.
    fn digest(&self) -> Digest {
        match self {
            ChainNode::Made { batch, index } => batch.signed().digests[*index as usize],
            ChainNode::Given(given) => given.digest,
        }
    }

    #[cfg(test)]
    fn is_signed(&self) -> bool {
        match self {
            ChainNode::Made { batch, .. } => batch.is_signed(),
            ChainNode::Given(_) => true,
        }
    }

    /// The node as an [`Attestation`], signing its batch if owed.
    /// Encoding goes through here, so the `wire_struct!` line stays the
    /// one statement of it; it is off the hot path (tests, checkpoints,
    /// `Debug`).
    fn attestation(&self) -> Attestation {
        match self {
            ChainNode::Made { batch, index } => {
                let signed = batch.signed();
                batch.attestation(*index as usize, &signed.tree, &signed.signature)
            }
            ChainNode::Given(given) => given.att.clone(),
        }
    }

    /// The length of the node's [`Attestation`] encoding, without
    /// signing: the proof's shape follows from the index and the size,
    /// and an owed PKCS#1 v1.5 signature is exactly as long as the
    /// modulus. This sum is on every send (`BgpUpdate::wire_size`), so
    /// it restates the field set; `tests/wire.rs` and the batch tests
    /// check it against the encoding.
    fn encoded_len(&self) -> usize {
        let (batch, index) = match self {
            ChainNode::Made { batch, index } => (batch, *index),
            ChainNode::Given(given) => return given.att.encoded_len(),
        };
        let Fields { prefix, path, target, signer, salt } = batch.fields(index as usize);
        let siblings = seqtree::sibling_count(u64::from(index), u64::from(batch.size()));
        let signature = match batch.signed.get() {
            Some(signed) => signed.signature.encoded_len(),
            None => {
                let key = batch.key.as_deref().expect("a batch without a signature holds its key");
                let bytes = key.public().modulus_len();
                (bytes as u32).encoded_len() + bytes
            }
        };
        prefix.encoded_len()
            + path.encoded_len()
            + target.encoded_len()
            + signer.encoded_len()
            + salt.encoded_len()
            + index.encoded_len()
            + batch.size().encoded_len()
            + (siblings as u32).encoded_len()
            + siblings * Digest::ZERO.encoded_len()
            + signature
    }

    /// Whether the node's proof takes its leaf — rebuilt from its
    /// fields, its salt and the digest of the node below — to a root
    /// whose signature `root_verdict` accepts.
    fn signature_holds(
        &self,
        buf: &mut Vec<u8>,
        root_verdict: impl FnOnce(Asn, &[u8], &RsaSignature) -> bool,
    ) -> bool {
        let fields = self.fields();
        let Proof { index, size, siblings, signature } = self.proof();
        let leaf = lone_leaf(buf, index, &fields, &parent_digest(self.parent()));
        match seqtree::fold(u64::from(index), u64::from(size), leaf, siblings) {
            Some(root) => root_verdict(fields.signer, &root_message(size, &root), signature),
            None => false,
        }
    }
}

impl AttestationChain {
    /// The empty chain (an unsigned route).
    pub fn empty() -> AttestationChain {
        AttestationChain(None)
    }

    /// Builds a chain from origin-first attestations (wire order). Used
    /// by decoding, tests, and attack strategies that forge chains
    /// explicitly.
    pub fn from_attestations(atts: Vec<Attestation>) -> AttestationChain {
        let mut chain = AttestationChain::empty();
        for att in atts {
            chain = chain.push(att);
        }
        chain
    }

    /// A new chain extending `self` with `att` (the newest hop's
    /// attestation). `self` is shared, never copied.
    pub fn push(&self, att: Attestation) -> AttestationChain {
        let parent = self.0.clone();
        let digest = attestation_digest(&parent_digest(parent.as_ref()), &att);
        let len = self.len() as u32 + 1;
        let given = Given { att, parent, len, digest };
        AttestationChain(Some(Arc::new(ChainNode::Given(Box::new(given)))))
    }

    /// `self` extended with `identity`'s attestation for announcing
    /// (`prefix`, `path`) to `target`, signed now as a batch of one.
    fn extended_now(
        &self,
        identity: &Identity,
        prefix: Prefix,
        path: &AsPath,
        target: Asn,
    ) -> AttestationChain {
        let batch = Batch::new(self, prefix, path.clone(), Box::new([(target, LONE_SALT)]), None);
        batch.signed.get_or_init(|| batch.sign(identity));
        batch.node(0)
    }

    /// Number of attestations.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len() as usize)
    }

    /// True when the chain holds no attestations.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The most recent attestation (the last signer's), if any.
    pub fn newest(&self) -> Option<Attestation> {
        self.0.as_deref().map(ChainNode::attestation)
    }

    /// The origin AS's attestation (the oldest), if any.
    pub fn origin(&self) -> Option<Attestation> {
        self.nodes_newest_first().last().map(ChainNode::attestation)
    }

    /// Clones all attestations in canonical origin-first order.
    pub fn to_vec(&self) -> Vec<Attestation> {
        self.nodes().into_iter().map(ChainNode::attestation).collect()
    }

    /// Verifies the newest attestation's signature alone: that its
    /// signer signed it on top of exactly the chain below it. The other
    /// checks of [`SignedRoute::verify`] — fields against the route,
    /// every attestation below — are left to the caller.
    pub fn verify_newest(&self, keys: &KeyStore) -> Result<(), SbgpError> {
        let node = self.0.as_deref().ok_or(SbgpError::ChainLength { expected: 1, got: 0 })?;
        let holds = node.signature_holds(&mut Vec::new(), |signer, message, signature| {
            keys.verify(signer.principal(), message, signature).is_ok()
        });
        if holds {
            Ok(())
        } else {
            Err(SbgpError::BadSignature(node.fields().signer))
        }
    }

    /// The nodes newest-first (list order; O(1) per step).
    fn nodes_newest_first(&self) -> impl Iterator<Item = &ChainNode> {
        std::iter::successors(self.0.as_deref(), |n| n.parent().map(|p| &**p))
    }

    /// The nodes in canonical origin-first order.
    fn nodes(&self) -> Vec<&ChainNode> {
        let mut nodes: Vec<&ChainNode> = self.nodes_newest_first().collect();
        nodes.reverse();
        nodes
    }
}

/// Two chains are equal when their newest digests are: a digest covers
/// the newest attestation's every byte and, through the digest it
/// binds, every attestation below.
impl PartialEq for AttestationChain {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a.digest() == b.digest(),
            _ => false,
        }
    }
}

impl Eq for AttestationChain {}

impl std::fmt::Debug for AttestationChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.to_vec()).finish()
    }
}

/// Exports made but not yet signed, for helper threads to sign ahead
/// of the routers that will read them.
///
/// A signed network on a host with more cores than shards holds one
/// queue, shared by its routers (which push each export's batch) and by
/// [`with_helpers`](Self::with_helpers) (which runs the helpers for the
/// length of an engine run). Outside a run, routers queue nothing. The
/// engine reads an UPDATE's signatures when it delivers it, oldest
/// first, and signs inline whatever no helper has reached; helpers take
/// the newest, so the two rarely meet on one batch. The queue holds weak
/// references: it keeps no batch alive, and an entry whose batch was
/// read or dropped is discarded unsigned. Nothing a helper does is
/// observable except as time — a batch is signed by whoever reads it
/// first, with the same bytes.
pub(crate) struct SignQueue {
    /// Helper threads each [`with_helpers`](Self::with_helpers) call
    /// runs.
    helpers: usize,
    state: Mutex<QueueState>,
    wake: Condvar,
}

#[derive(Default)]
struct QueueState {
    /// Oldest at the front, newest at the back.
    pending: VecDeque<Weak<Batch>>,
    /// Helpers waiting for work.
    idle: usize,
    /// Whether helpers are running.
    open: bool,
}

/// Locks `mutex`, recovering from poisoning: every structure behind
/// this module's locks is updated whole, so a panic elsewhere never
/// leaves one half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SignQueue {
    /// A queue whose [`with_helpers`](Self::with_helpers) runs
    /// `helpers` threads.
    pub(crate) fn new(helpers: usize) -> SignQueue {
        SignQueue { helpers, state: Mutex::default(), wake: Condvar::new() }
    }

    /// Queues the batch `chain`'s newest attestation belongs to, if
    /// helpers are running and the batch was made here. Entries the
    /// readers have already signed or dropped leave from the front, so
    /// the queue stays about as long as the signatures still owed.
    pub(crate) fn push(&self, chain: &AttestationChain) {
        let Some(ChainNode::Made { batch, .. }) = chain.0.as_deref() else { return };
        let mut state = lock(&self.state);
        if !state.open {
            return;
        }
        while state.pending.front().is_some_and(|oldest| !still_owed(oldest)) {
            state.pending.pop_front();
        }
        state.pending.push_back(Arc::downgrade(batch));
        if state.idle > 0 {
            self.wake.notify_one();
        }
    }

    /// Runs `work` with this queue's helper threads signing beside it,
    /// and returns once they have all stopped.
    pub(crate) fn with_helpers<R>(&self, work: impl FnOnce() -> R) -> R {
        std::thread::scope(|scope| {
            lock(&self.state).open = true;
            // Dropped when `work` returns or unwinds, before the scope
            // joins the helpers it tells to stop.
            let _close = Close(self);
            for _ in 0..self.helpers {
                scope.spawn(|| self.help());
            }
            work()
        })
    }

    /// One helper: signs queued batches newest first until closed.
    fn help(&self) {
        let mut state = lock(&self.state);
        while state.open {
            match state.pending.pop_back() {
                Some(entry) => {
                    drop(state);
                    if let Some(batch) = entry.upgrade() {
                        batch.signed();
                    }
                    state = lock(&self.state);
                }
                None => {
                    state.idle += 1;
                    state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                    state.idle -= 1;
                }
            }
        }
    }
}

/// Stops a queue's helpers when dropped. What is still owed stays
/// queued for the next call's helpers; the rest is let go.
struct Close<'a>(&'a SignQueue);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.open = false;
        state.pending.retain(still_owed);
        drop(state);
        self.0.wake.notify_all();
    }
}

/// Whether a queued batch is alive and not yet signed.
fn still_owed(entry: &Weak<Batch>) -> bool {
    entry.upgrade().is_some_and(|batch| !batch.is_signed())
}

/// A cache memo exported for checkpointing, in the order the CACHE
/// section holds it: the call and hit counters, then the sorted
/// `(signer, digest, verdict)` entries.
pub(crate) type CacheState = (u64, u64, Vec<(Asn, [u8; 32], bool)>);

/// A verification memo for attestations, for the root signatures
/// behind them, and for the tree nodes between the two.
///
/// `sbgp` re-verifies the *entire* chain at every import hop, so a
/// route that crosses `h` ASes costs `O(h²)` attestation checks
/// network-wide — and every prefix-suffix attestation past the first
/// hop is one some router already checked. A cache shared by the
/// routers of one shard of a [`crate::BgpNetwork`] collapses that, at
/// three levels:
///
/// * an attestation, keyed by `(signer, digest)` — the digest covers
///   the attestation's every byte, its signature included, and the
///   chain below it, so a verdict cached for the genuine attestation
///   can never launder a forgery (pinned by the cache regression tests
///   in `tests/detection_matrix.rs`). A miss walks the proof to the
///   root;
/// * a root signature, keyed by `(signer, SHA-256(size ‖ root ‖
///   signature))`: every recipient of one export reaches the same root,
///   so the export costs one RSA verify per cache, not one per
///   neighbor;
/// * the tree nodes of an export made in this process, keyed by its
///   root signature's key: a miss on one of its leaves hashes only up
///   to the first node it shares with a leaf verified before, so the
///   export's upper nodes are hashed once per cache, not once per leaf.
///   A decoded or hand-built attestation carries its own siblings,
///   which nothing vouches for, and always walks to the root.
///
/// The first two live in one map (their digests are domain-separated),
/// which is what a checkpoint saves; the third is derivable from them
/// and is not saved. [`calls`](Self::calls) and [`hits`](Self::hits)
/// count attestation checks.
///
/// A network holds one cache per engine shard, shared by that shard's
/// routers through an `Arc` — hence the `Mutex` and the atomics. A
/// shard's window runs on one thread, so the lock is never contended
/// and `check` holds it across the RSA verify of a miss; what a shard
/// count changes is only the hit counter (a verdict cached on one
/// shard is a miss on the next).
#[derive(Debug, Default)]
pub struct VerifyCache {
    memo: Mutex<Memo>,
    calls: AtomicU64,
    hits: AtomicU64,
}

#[derive(Debug, Default)]
struct Memo {
    /// Attestation and root-signature verdicts.
    verdicts: HashMap<DigestKey, bool, DigestKeys>,
    known: KnownNodes,
}

/// A memo key: a signer and a SHA-256 digest (an attestation's, or a
/// root signature's [`root_key`]).
type DigestKey = (Asn, [u8; 32]);

/// The memo maps' hashing: a [`DigestKey`] hashes as its digest's first
/// eight bytes with the signer folded in, times an odd number drawn per
/// map, where SipHash would hash all 36 bytes on every lookup. A SHA-256
/// output is uniform already; the secret multiplier keeps a sender that
/// grinds its attestations from aiming their digests at one bucket
/// (colliding without knowing it takes digests that agree in their low
/// 32 + log2(buckets) bits). Equality still compares all 36 bytes.
#[derive(Clone)]
struct DigestKeys(u64);

impl Default for DigestKeys {
    fn default() -> DigestKeys {
        DigestKeys(RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for DigestKeys {
    type Hasher = DigestKeyHasher;

    fn build_hasher(&self) -> DigestKeyHasher {
        DigestKeyHasher { multiplier: self.0, word: 0 }
    }
}

struct DigestKeyHasher {
    multiplier: u64,
    word: u64,
}

impl Hasher for DigestKeyHasher {
    /// The digest's bytes.
    fn write(&mut self, bytes: &[u8]) {
        let mut word = [0; 8];
        let take = bytes.len().min(8);
        word[..take].copy_from_slice(&bytes[..take]);
        self.word ^= u64::from_le_bytes(word);
    }

    /// The signer.
    fn write_u32(&mut self, asn: u32) {
        self.word ^= u64::from(asn);
    }

    /// The digest's length, which every key shares.
    fn write_usize(&mut self, _: usize) {}

    /// The product's middle bits, which every bit of the word below
    /// them moves.
    fn finish(&self) -> u64 {
        self.word.wrapping_mul(self.multiplier).rotate_left(32)
    }
}

/// Per export tree, by its root signature's key: the nodes whose fold
/// to that root this cache has checked, as [`SeqTree::fold_known`]'s
/// bits, and the part every leaf of the tree shares, absorbed. The key
/// binds the root, the tree's size and the signature, so the bits of
/// one tree never stand for another's nodes, nor for the same tree
/// under another signature, and the shared part is the one the tree's
/// leaves were hashed with.
#[derive(Debug, Default)]
struct KnownNodes {
    /// Per tree, where its bits start and its shared leaf part.
    at: HashMap<DigestKey, KnownTree, DigestKeys>,
    /// Every tree's bits, one after another: no allocation per tree.
    bits: Vec<u64>,
}

#[derive(Debug)]
struct KnownTree {
    /// Where the tree's bits start in [`KnownNodes::bits`].
    at: usize,
    /// Its leaves' shared part ([`leaf_prefix`]).
    prefix: LeafPrefix,
}

impl KnownNodes {
    /// `tree`'s shared leaf part and bits under `key`. A tree's first
    /// miss in this cache absorbs the part (`prefix`) and starts its
    /// bits empty.
    fn tree(
        &mut self,
        key: DigestKey,
        tree: &SeqTree,
        prefix: impl FnOnce() -> LeafPrefix,
    ) -> (&LeafPrefix, &mut [u64]) {
        let (words, end) = (tree.known_words(), self.bits.len());
        let known = match self.at.entry(key) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(vacant) => {
                self.bits.resize(end + words, 0);
                vacant.insert(KnownTree { at: end, prefix: prefix() })
            }
        };
        (&known.prefix, &mut self.bits[known.at..known.at + words])
    }
}

impl VerifyCache {
    /// An empty cache.
    pub fn new() -> VerifyCache {
        VerifyCache::default()
    }

    /// Total attestation checks requested through the cache.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// How many of those were answered from the memo (no hashing, no
    /// RSA math).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// RSA verifies the cache has run: one per root signature it was
    /// asked about. Every attestation miss adds one entry and every
    /// root miss one more, so this is the entries beyond the misses —
    /// counted without a field of its own, and so restored with the
    /// memo by a checkpoint.
    pub fn root_verifies(&self) -> u64 {
        let misses = self.calls() - self.hits();
        (lock(&self.memo).verdicts.len() as u64).saturating_sub(misses)
    }

    /// Exports the memo for checkpointing: `(calls, hits, entries)`
    /// with entries in `(signer, digest)` order, so the same cache
    /// state always serializes to the same bytes.
    pub(crate) fn export_state(&self) -> CacheState {
        let mut entries: Vec<(Asn, [u8; 32], bool)> = lock(&self.memo)
            .verdicts
            .iter()
            .map(|(&(signer, digest), &verdict)| (signer, digest, verdict))
            .collect();
        entries.sort_unstable_by_key(|&(signer, digest, _)| (signer, digest));
        (self.calls(), self.hits(), entries)
    }

    /// Replaces the memo with a checkpointed state, and forgets the
    /// known tree nodes. Restore only: the cache is shared by `Arc`, so
    /// this goes through the interior mutability the hot path already
    /// uses.
    pub(crate) fn load_state(&self, (calls, hits, entries): CacheState) {
        let mut memo = lock(&self.memo);
        memo.verdicts.clear();
        memo.known = KnownNodes::default();
        for (signer, digest, verdict) in entries {
            memo.verdicts.insert((signer, digest), verdict);
        }
        drop(memo);
        self.calls.store(calls, Ordering::Relaxed);
        self.hits.store(hits, Ordering::Relaxed);
    }

    /// Checks `node`'s signature, consulting the memo first. The
    /// verdict (valid or not) is cached either way — a forged chain
    /// replayed at every hop would otherwise cost the full check each
    /// time it is rejected.
    ///
    /// A lock poisoned by a panic elsewhere is used as it stands: an
    /// entry goes in whole, after its verify, and a tree node is marked
    /// only after its root's verdict went in, so the memo only ever
    /// holds verdicts that were computed and marks they justify.
    fn check(&self, node: &ChainNode, buf: &mut Vec<u8>, keys: &KeyStore) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        // Read (and so signed, if owed) before the memo is locked.
        let key = (node.fields().signer, node.digest().0);
        let mut memo = lock(&self.memo);
        if let Some(&verdict) = memo.verdicts.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        let Memo { verdicts, known } = &mut *memo;
        let root_verdict = |signer: Asn, message: &[u8], signature: &RsaSignature| {
            *verdicts
                .entry((signer, root_key(message, signature)))
                .or_insert_with(|| keys.verify(signer.principal(), message, signature).is_ok())
        };
        let verdict = match node {
            ChainNode::Made { batch, index } => {
                batch.leaf_holds(*index as usize, buf, known, root_verdict)
            }
            ChainNode::Given(_) => node.signature_holds(buf, root_verdict),
        };
        verdicts.insert(key, verdict);
        verdict
    }
}

/// A route bundled with its attestation chain (origin's attestation
/// first on the wire). An empty chain means the route is unsigned
/// (plain BGP mode).
///
/// The chain is a shared persistent list: cloning a `SignedRoute` — as
/// per-neighbor fan-out, RIB storage, and delivery tracing all do —
/// never copies attestation bytes, and [`SignedRoute::extend`] shares
/// the received chain rather than re-copying its prefix. Forged or
/// hand-built chains are constructed explicitly via
/// [`AttestationChain::from_attestations`] and
/// [`SignedRoute::with_chain`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedRoute {
    /// The route as announced.
    pub route: Route,
    /// Attestation chain; length equals the path length when signed,
    /// zero when unsigned.
    chain: AttestationChain,
}

impl SignedRoute {
    /// Wraps a route without signatures (plain BGP).
    pub fn unsigned(route: Route) -> SignedRoute {
        SignedRoute { route, chain: AttestationChain::empty() }
    }

    /// Bundles a route with an explicitly built chain (decoders, tests,
    /// and attack strategies forging or splicing chains).
    pub fn with_chain(route: Route, chain: AttestationChain) -> SignedRoute {
        SignedRoute { route, chain }
    }

    /// The attestation chain.
    pub fn chain(&self) -> &AttestationChain {
        &self.chain
    }

    /// True if the route carries an attestation chain.
    pub fn is_signed(&self) -> bool {
        !self.chain.is_empty()
    }

    /// Originates a signed route: `identity`'s AS announces its own
    /// prefix to `target`, as a batch of one signed now. The route's
    /// path must be exactly `[signer]`.
    pub fn originate(identity: &Identity, route: Route, target: Asn) -> SignedRoute {
        assert_eq!(
            route.path.asns(),
            &[Asn(identity.id() as u32)],
            "origination path must be [self]"
        );
        let chain =
            AttestationChain::empty().extended_now(identity, route.prefix, &route.path, target);
        SignedRoute { route, chain }
    }

    /// Extends a received signed route for re-announcement: `identity`'s
    /// AS prepends itself (already done in `route`) and signs toward
    /// `target`, as a batch of one signed now. `route.path` must start
    /// with the signer and continue with the received chain's path. The
    /// received chain is shared, not copied.
    pub fn extend(
        received: &SignedRoute,
        identity: &Identity,
        route: Route,
        target: Asn,
    ) -> SignedRoute {
        debug_assert_eq!(route.path.first_as(), Some(Asn(identity.id() as u32)));
        let chain = received.chain.extended_now(identity, route.prefix, &route.path, target);
        SignedRoute { route, chain }
    }

    /// One export: `identity`'s AS announces `route` to every one of
    /// `targets` (ascending ASN order), extending `received` — or
    /// originating, when there is none — with leaf `i` salted by
    /// `salts[i]`. Returns one route per target, in order, whose
    /// attestations are signed together when first read — by whichever
    /// reader, or sign-ahead helper the batch is offered to, gets there
    /// first — instead of now. Every byte, verdict and length is the
    /// same whoever signs.
    pub fn export(
        received: Option<&SignedRoute>,
        identity: &Arc<Identity>,
        route: &Route,
        targets: &[Asn],
        salts: &[Salt],
    ) -> Vec<SignedRoute> {
        debug_assert!(received.is_some() || route.path.len() == 1, "origination path is [self]");
        debug_assert_eq!(route.path.first_as(), Some(Asn(identity.id() as u32)));
        assert_eq!(targets.len(), salts.len(), "one salt per target");
        let origin = AttestationChain::empty();
        let below = received.map_or(&origin, |r| &r.chain);
        let key = Some(Arc::clone(identity));
        let leaves = targets.iter().copied().zip(salts.iter().copied()).collect();
        let batch = Batch::new(below, route.prefix, route.path.clone(), leaves, key);
        (0..targets.len())
            .map(|i| SignedRoute { route: route.clone(), chain: batch.node(i) })
            .collect()
    }

    /// Verifies the whole chain for an announcement delivered to
    /// `receiver`. Checks, per §1's S-BGP description, that the
    /// announcement corresponds to the claimed path and destination:
    ///
    /// * one attestation per AS on the path, origin first;
    /// * each attestation's path is the correct suffix of the route path;
    /// * each attestation's target is the next AS (the last one's is
    ///   `receiver`);
    /// * every signature verifies, over its leaf and the chain below.
    pub fn verify(&self, receiver: Asn, keys: &KeyStore) -> Result<(), SbgpError> {
        self.verify_cached(receiver, keys, None)
    }

    /// [`SignedRoute::verify`] with an optional shared
    /// [`VerifyCache`]: verdicts are identical with or without the
    /// cache, only the number of hashes and RSA operations differs.
    pub fn verify_cached(
        &self,
        receiver: Asn,
        keys: &KeyStore,
        cache: Option<&VerifyCache>,
    ) -> Result<(), SbgpError> {
        let path = self.route.path.asns();
        if path.is_empty() {
            return Err(SbgpError::EmptyPath);
        }
        if self.route.path.has_loop() {
            return Err(SbgpError::PathLoop);
        }
        if self.chain.len() != path.len() {
            return Err(SbgpError::ChainLength { expected: path.len(), got: self.chain.len() });
        }
        let m = path.len();
        // One leaf buffer for the whole chain; the node collection
        // restores origin-first order so error precedence matches the
        // pre-sharing implementation exactly.
        let mut buf = Vec::with_capacity(128);
        for (j, node) in self.chain.nodes().into_iter().enumerate() {
            let att = node.fields();
            // Attestation j (origin first) was made by path[m-1-j].
            let signer_idx = m - 1 - j;
            let expected_signer = path[signer_idx];
            let expected_target = if signer_idx == 0 { receiver } else { path[signer_idx - 1] };
            if att.signer != expected_signer {
                return Err(SbgpError::WrongSigner { expected: expected_signer, got: att.signer });
            }
            if att.prefix != self.route.prefix {
                return Err(SbgpError::PrefixMismatch);
            }
            if att.path.asns() != &path[signer_idx..] {
                return Err(SbgpError::PathMismatch(att.signer));
            }
            if att.target != expected_target {
                return Err(SbgpError::WrongTarget { expected: expected_target, got: att.target });
            }
            let ok = match cache {
                Some(cache) => cache.check(node, &mut buf, keys),
                None => node.signature_holds(&mut buf, |signer, message, signature| {
                    keys.verify(signer.principal(), message, signature).is_ok()
                }),
            };
            if !ok {
                return Err(SbgpError::BadSignature(att.signer));
            }
        }
        Ok(())
    }
}

/// Hand-written: the chain is a shared cons list held newest-first,
/// while the wire (and verification) order is origin-first. Encoding
/// signs what is still owed; `encoded_len` — every sent UPDATE's
/// `wire_size` — never does.
impl Wire for SignedRoute {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.route.encode(buf);
        let nodes = self.chain.nodes();
        (nodes.len() as u32).encode(buf);
        for node in nodes {
            node.attestation().encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedRoute {
            route: Route::decode(r)?,
            chain: AttestationChain::from_attestations(Vec::decode(r)?),
        })
    }
    fn encoded_len(&self) -> usize {
        self.route.encoded_len()
            + 4
            + self.chain.nodes_newest_first().map(ChainNode::encoded_len).sum::<usize>()
    }
}

/// Builds a genuine `hops`-long attestation chain AS1 → … → AS`hops`,
/// announced toward AS`hops+1`, plus the populated key store. The
/// shared fixture behind experiments E5 and E13, the benchmark's chain
/// probes and the cache regression tests — one place to change if
/// chain conventions ever do.
pub fn demo_chain(
    hops: u32,
    key_bits: usize,
    seed: &[u8],
) -> (SignedRoute, KeyStore, /* receiver */ Asn) {
    use pvr_crypto::drbg::HmacDrbg;
    assert!(hops >= 1, "a chain needs at least an origin");
    let mut rng = HmacDrbg::new(seed);
    let ids: Vec<Identity> =
        (1..=hops as u64).map(|a| Identity::generate(a, key_bits, &mut rng)).collect();
    let mut keys = KeyStore::new();
    for id in &ids {
        keys.register_identity(id);
    }
    let prefix = Prefix::parse("10.77.0.0/16").unwrap();
    let mut route = Route::originate(prefix);
    route.path = AsPath::from_slice(&[Asn(1)]);
    let mut chain = SignedRoute::originate(&ids[0], route, Asn(2));
    for hop in 2..=hops {
        let next = chain.route.clone().propagated_by(Asn(hop));
        chain = SignedRoute::extend(&chain, &ids[hop as usize - 1], next, Asn(hop + 1));
    }
    (chain, keys, Asn(hops + 1))
}

/// Attestation-chain verification failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SbgpError {
    /// Route has no path (locally originated routes are not announced).
    EmptyPath,
    /// Path contains a repeated AS.
    PathLoop,
    /// Number of attestations does not match path length.
    ChainLength {
        /// Path length.
        expected: usize,
        /// Attestation count.
        got: usize,
    },
    /// An attestation was made by the wrong AS.
    WrongSigner {
        /// AS that should have signed at this position.
        expected: Asn,
        /// AS that actually signed.
        got: Asn,
    },
    /// An attestation covers a different prefix.
    PrefixMismatch,
    /// An attestation's path is not the expected suffix.
    PathMismatch(Asn),
    /// An attestation was directed at the wrong next hop.
    WrongTarget {
        /// Required target.
        expected: Asn,
        /// Actual target.
        got: Asn,
    },
    /// A signature failed.
    BadSignature(Asn),
}

impl std::fmt::Display for SbgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbgpError::EmptyPath => write!(f, "empty AS path"),
            SbgpError::PathLoop => write!(f, "AS path contains a loop"),
            SbgpError::ChainLength { expected, got } => {
                write!(f, "attestation chain length {got}, expected {expected}")
            }
            SbgpError::WrongSigner { expected, got } => {
                write!(f, "attestation signed by {got}, expected {expected}")
            }
            SbgpError::PrefixMismatch => write!(f, "attestation prefix mismatch"),
            SbgpError::PathMismatch(asn) => write!(f, "attestation path mismatch at {asn}"),
            SbgpError::WrongTarget { expected, got } => {
                write!(f, "attestation targeted {got}, expected {expected}")
            }
            SbgpError::BadSignature(asn) => write!(f, "bad signature from {asn}"),
        }
    }
}

impl std::error::Error for SbgpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::drbg::HmacDrbg;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    /// Identities for AS 1..=4 plus a populated key store.
    fn setup() -> (Vec<Identity>, KeyStore) {
        let mut rng = HmacDrbg::new(b"sbgp tests");
        let ids: Vec<Identity> = (1..=4).map(|a| Identity::generate(a, 512, &mut rng)).collect();
        let mut keys = KeyStore::new();
        for id in &ids {
            keys.register_identity(id);
        }
        (ids, keys)
    }

    /// Builds the chain AS1 → AS2 → AS3 (receiver AS3).
    fn two_hop_chain(ids: &[Identity]) -> SignedRoute {
        let mut r1 = Route::originate(prefix());
        r1.path = AsPath::from_slice(&[Asn(1)]);
        let sr1 = SignedRoute::originate(&ids[0], r1, Asn(2));
        // AS2 re-announces to AS3.
        let r2 = {
            let mut r = sr1.route.clone().propagated_by(Asn(2));
            r.prefix = sr1.route.prefix;
            r
        };
        SignedRoute::extend(&sr1, &ids[1], r2, Asn(3))
    }

    #[test]
    fn valid_chain_verifies() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert!(sr.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn wrong_receiver_rejected() {
        // AS3 forwarding AS2's announcement to AS4 unchanged must fail:
        // the top attestation targets AS3, not AS4 (cut-and-paste attack).
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert_eq!(
            sr.verify(Asn(4), &keys),
            Err(SbgpError::WrongTarget { expected: Asn(4), got: Asn(3) })
        );
    }

    #[test]
    fn truncated_chain_rejected() {
        // Path shortening attack: AS3 strips AS2 from the path.
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut forged = sr.clone();
        forged.route.path = AsPath::from_slice(&[Asn(2)]);
        assert!(matches!(forged.verify(Asn(3), &keys), Err(SbgpError::ChainLength { .. })));
    }

    #[test]
    fn path_insertion_rejected() {
        // AS3 invents a shorter-looking path it never received.
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut forged = sr.clone();
        forged.route.path = AsPath::from_slice(&[Asn(4), Asn(2), Asn(1)]);
        assert!(forged.verify(Asn(3), &keys).is_err());
    }

    #[test]
    fn tampered_prefix_rejected() {
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.prefix = Prefix::parse("192.168.0.0/16").unwrap();
        assert!(sr.verify(Asn(3), &keys).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let sr = SignedRoute::with_chain(sr.route, AttestationChain::from_attestations(atts));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::BadSignature(Asn(1))));
    }

    #[test]
    fn looped_path_rejected() {
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.path = AsPath::from_slice(&[Asn(2), Asn(1), Asn(2)]);
        let repeat = sr.chain().newest().unwrap();
        sr = SignedRoute::with_chain(sr.route.clone(), sr.chain().push(repeat));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::PathLoop));
    }

    #[test]
    fn empty_path_rejected() {
        let (_, keys) = setup();
        let sr = SignedRoute::unsigned(Route::originate(prefix()));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::EmptyPath));
    }

    #[test]
    fn attributes_not_covered_by_signature() {
        // LOCAL_PREF changes must not invalidate the chain (non-transitive
        // attributes are outside the attestation, as in real S-BGP).
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.local_pref = 999;
        sr.route.med = 7;
        assert!(sr.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn unsigned_round_trip() {
        let sr = SignedRoute::unsigned(Route::originate(prefix()));
        assert!(!sr.is_signed());
        let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
    }

    #[test]
    fn signed_wire_round_trip() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
        assert!(back.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn cached_verify_matches_uncached() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        assert_eq!(sr.verify(Asn(3), &keys), sr.verify_cached(Asn(3), &keys, Some(&cache)));
        assert_eq!(cache.calls(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.root_verifies(), 2, "one per batch of one");
        // Second pass: every signature check answered from the memo.
        assert!(sr.verify_cached(Asn(3), &keys, Some(&cache)).is_ok());
        assert_eq!(cache.calls(), 4);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.root_verifies(), 2);
    }

    /// An attestation signs the digest of the one it extends: breaking
    /// any byte below it breaks it too, so a broken inner attestation
    /// cannot be pinned on an honest outer signer.
    #[test]
    fn an_attestation_binds_the_chain_below() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert_eq!(sr.chain().verify_newest(&keys), Ok(()));
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let broken = AttestationChain::from_attestations(atts);
        assert_eq!(broken.verify_newest(&keys), Err(SbgpError::BadSignature(Asn(2))));
        assert_eq!(
            SignedRoute::with_chain(sr.route.clone(), broken).verify(Asn(3), &keys),
            Err(SbgpError::BadSignature(Asn(1)))
        );
    }

    #[test]
    fn cache_does_not_launder_forged_signatures() {
        // Same signed bytes, different signature: the genuine chain's
        // cached `true` must not validate the forgery (the cache key
        // covers the signature, not just the payload).
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        assert!(sr.verify_cached(Asn(3), &keys, Some(&cache)).is_ok());
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let forged =
            SignedRoute::with_chain(sr.route.clone(), AttestationChain::from_attestations(atts));
        assert_eq!(
            forged.verify_cached(Asn(3), &keys, Some(&cache)),
            Err(SbgpError::BadSignature(Asn(1)))
        );
        // And the rejection itself is memoized on replay.
        let calls = cache.calls();
        assert_eq!(
            forged.verify_cached(Asn(3), &keys, Some(&cache)),
            Err(SbgpError::BadSignature(Asn(1)))
        );
        assert_eq!(cache.calls(), calls + 1);
        assert!(cache.hits() >= 1);
    }

    /// The persistent chain must be observationally identical to the
    /// owned `Vec<Attestation>` it replaced: construction by `push` or
    /// `from_attestations`, accessors, equality, wire round-trips, and
    /// encoded length all behave as if the chain were the vector.
    /// Attestations here carry dummy signatures — representation
    /// equivalence is independent of signature validity.
    /// Derives an attestation deterministically from one seed (the
    /// vendored proptest shim has no tuple strategies). Signatures are
    /// dummies — representation equivalence does not depend on
    /// signature validity.
    fn dummy_attestations(seeds: &[u64]) -> Vec<Attestation> {
        seeds
            .iter()
            .map(|&seed| Attestation {
                prefix: Prefix::parse("10.0.0.0/8").unwrap(),
                path: AsPath::from_slice(&[Asn(1 + (seed % 97) as u32)]),
                target: Asn(1 + ((seed >> 8) % 97) as u32),
                signer: Asn(1 + (seed % 97) as u32),
                salt: [(seed >> 24) as u8; SALT_LEN],
                index: (seed >> 32) as u32 % 3,
                size: 3,
                siblings: vec![Digest([(seed >> 40) as u8; 32]); (seed >> 48) as usize % 3],
                signature: pvr_crypto::rsa::RsaSignature(
                    (0..4 + (seed % 28) as u8).map(|i| i ^ (seed >> 16) as u8).collect(),
                ),
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chain_matches_owned_vec_semantics(
            seeds in proptest::collection::vec(any::<u64>(), 0..6),
        ) {
            let atts = dummy_attestations(&seeds);
            // from_attestations == repeated push.
            let chain = AttestationChain::from_attestations(atts.clone());
            let mut pushed = AttestationChain::empty();
            for a in &atts {
                pushed = pushed.push(a.clone());
            }
            prop_assert_eq!(&chain, &pushed);
            // Accessors mirror the vector.
            prop_assert_eq!(chain.len(), atts.len());
            prop_assert_eq!(chain.is_empty(), atts.is_empty());
            prop_assert_eq!(chain.origin().as_ref(), atts.first());
            prop_assert_eq!(chain.newest().as_ref(), atts.last());
            prop_assert_eq!(chain.to_vec(), atts.clone());
            // Clones share structure but compare equal; an extended
            // clone diverges without disturbing the parent.
            let shared = chain.clone();
            prop_assert_eq!(&shared, &chain);
            if let Some(first) = atts.first() {
                let longer = chain.push(first.clone());
                prop_assert_eq!(longer.len(), chain.len() + 1);
                prop_assert_ne!(&longer, &chain);
                prop_assert_eq!(chain.to_vec(), atts.clone());
            }
            // Wire bytes equal the origin-first sequence encoding, and
            // the arithmetic length matches (SignedRoute carries the
            // chain on the wire).
            let sr = SignedRoute::with_chain(
                Route::originate(Prefix::parse("10.0.0.0/8").unwrap()),
                chain.clone(),
            );
            let mut expect = sr.route.to_wire();
            atts.encode(&mut expect);
            prop_assert_eq!(sr.to_wire(), expect);
            prop_assert_eq!(sr.encoded_len(), sr.to_wire().len());
            let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
            prop_assert_eq!(back, sr);
        }
    }

    #[test]
    fn three_hop_chain() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        // AS3 extends to AS4.
        let r3 = sr.route.clone().propagated_by(Asn(3));
        let sr3 = SignedRoute::extend(&sr, &ids[2], r3, Asn(4));
        assert!(sr3.verify(Asn(4), &keys).is_ok());
        assert_eq!(sr3.chain().len(), 3);
        // And the intermediate receiver can no longer be claimed.
        assert!(sr3.verify(Asn(3), &keys).is_err());
    }

    /// [`setup`]'s identities, shared the way a router shares its own,
    /// generated once for every test and case that signs later.
    fn shared_setup() -> &'static (Vec<Arc<Identity>>, KeyStore) {
        static SETUP: OnceLock<(Vec<Arc<Identity>>, KeyStore)> = OnceLock::new();
        SETUP.get_or_init(|| {
            let (ids, keys) = setup();
            (ids.into_iter().map(Arc::new).collect(), keys)
        })
    }

    fn is_pending(sr: &SignedRoute) -> bool {
        sr.chain.nodes().iter().any(|node| !node.is_signed())
    }

    /// A node made here is its batch and its index: everything else is
    /// the batch's, shared by every recipient of the export.
    #[test]
    fn chain_node_stays_small() {
        let node = std::mem::size_of::<ChainNode>();
        assert!(node <= 16, "ChainNode is {node} B");
    }

    /// A deferred export of `route` to `target` alone, salted as a batch
    /// of one is: the eager constructors' deferred twin.
    fn export_one(
        received: Option<&SignedRoute>,
        signer: &Arc<Identity>,
        route: Route,
        target: Asn,
        queue: Option<&SignQueue>,
    ) -> SignedRoute {
        let lone = SignedRoute::export(received, signer, &route, &[target], &[LONE_SALT]);
        let lone = lone.into_iter().next().expect("one recipient");
        if let Some(queue) = queue {
            queue.push(lone.chain());
        }
        lone
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A chain signed later is the chain signed now: the same wire
        /// bytes and length, the same verdicts for the right and a wrong
        /// receiver, and a length read that signs nothing.
        #[test]
        fn signed_later_equals_signed_now(
            addr in any::<u32>(),
            prefix_len in 0u8..=32,
            hops in 1usize..=4,
            first in 0usize..4,
            target in 5u32..1000,
        ) {
            let (ids, keys) = shared_setup();
            let prefix = Prefix::new(addr, prefix_len);
            // Signers run through AS1..AS4 from a random first one.
            let signers: Vec<&Arc<Identity>> = (0..hops).map(|h| &ids[(first + h) % 4]).collect();
            let target_of = |h: usize| match signers.get(h + 1) {
                Some(next) => Asn(next.id() as u32),
                None => Asn(target),
            };
            let mut route = Route::originate(prefix);
            route.path = AsPath::from_slice(&[Asn(signers[0].id() as u32)]);
            let mut now = SignedRoute::originate(signers[0], route.clone(), target_of(0));
            let mut later = export_one(None, signers[0], route, target_of(0), None);
            for (h, &signer) in signers.iter().enumerate().skip(1) {
                let next = now.route.clone().propagated_by(Asn(signer.id() as u32));
                now = SignedRoute::extend(&now, signer, next.clone(), target_of(h));
                later = export_one(Some(&later), signer, next, target_of(h), None);
            }
            prop_assert!(is_pending(&later));
            prop_assert_eq!(later.encoded_len(), now.to_wire().len());
            prop_assert!(is_pending(&later), "encoded_len signed an attestation");
            prop_assert_eq!(later.to_wire(), now.to_wire());
            prop_assert!(!is_pending(&later));
            prop_assert_eq!(later.encoded_len(), now.encoded_len());
            prop_assert_eq!(later.verify(Asn(target), keys), Ok(()));
            let wrong = Asn(target + 1);
            prop_assert_eq!(later.verify(wrong, keys), now.verify(wrong, keys));
            prop_assert_eq!(&later, &now);
        }
    }

    /// Comparing and verifying sign what they read, each reaching the
    /// eager form's answer.
    #[test]
    fn comparing_and_verifying_sign_what_they_read() {
        let (ids, keys) = shared_setup();
        let mut route = Route::originate(prefix());
        route.path = AsPath::from_slice(&[Asn(1)]);
        let now = SignedRoute::originate(&ids[0], route.clone(), Asn(2));
        let later = || export_one(None, &ids[0], route.clone(), Asn(2), None);
        let compared = later();
        assert_eq!(compared, now);
        assert!(!is_pending(&compared));
        let verified = later();
        assert_eq!(verified.verify(Asn(2), keys), Ok(()));
        assert!(!is_pending(&verified));
        assert_eq!(later().chain().newest(), now.chain().newest());
    }

    /// Four threads reading one pending node at once all read the one
    /// signature the node stores, equal to the eager one.
    #[test]
    fn racing_readers_share_one_signature() {
        let (ids, _) = shared_setup();
        let mut route = Route::originate(prefix());
        route.path = AsPath::from_slice(&[Asn(3)]);
        let now = SignedRoute::originate(&ids[2], route.clone(), Asn(4));
        let later = export_one(None, &ids[2], route, Asn(4), None);
        let node = later.chain.0.as_deref().expect("one attestation");
        let barrier = std::sync::Barrier::new(4);
        let read: Vec<usize> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        node.proof().signature as *const RsaSignature as usize
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(read.iter().all(|&at| at == read[0]), "readers saw different signatures");
        assert_eq!(node.proof().signature, &now.chain().newest().unwrap().signature);
    }

    /// AS1's origination of the `i`-th /24 toward AS2, signed later and
    /// offered to `queue`.
    fn queued_origination(queue: &SignQueue, i: u32) -> SignedRoute {
        let (ids, _) = shared_setup();
        let mut route = Route::originate(Prefix::new(i << 8, 24));
        route.path = AsPath::from_slice(&[Asn(1)]);
        export_one(None, &ids[0], route, Asn(2), Some(queue))
    }

    /// Spins until `done`, failing after a minute.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// A queue's helpers all start with the work they run beside, sign
    /// what routers queue while it waits, and are stopped when it
    /// returns.
    #[test]
    fn helpers_sign_queued_attestations() {
        let queue = SignQueue::new(2);
        queue.with_helpers(|| {
            wait_until("both helpers start", || lock(&queue.state).idle == 2);
            let routes: Vec<SignedRoute> = (0..16).map(|i| queued_origination(&queue, i)).collect();
            wait_until("helpers sign the queue", || !routes.iter().any(is_pending));
        });
        let state = lock(&queue.state);
        assert!(!state.open);
        assert!(state.pending.is_empty());
    }

    /// An export made while no helper runs is not queued, and its first
    /// reader signs it.
    #[test]
    fn pushes_outside_a_run_queue_nothing() {
        let queue = SignQueue::new(1);
        let route = queued_origination(&queue, 0);
        assert!(lock(&queue.state).pending.is_empty());
        assert!(is_pending(&route));
        assert!(route.chain().newest().is_some());
        assert!(!is_pending(&route));
    }

    /// A panic while the memo's lock was held leaves it poisoned; the
    /// cache still answers, caches and counts.
    #[test]
    fn poisoned_verify_cache_still_answers() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.memo.lock().unwrap();
                panic!("poisoning the verify cache on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.memo.is_poisoned());
        assert_eq!(sr.verify_cached(Asn(3), &keys, Some(&cache)), Ok(()));
        assert_eq!((cache.calls(), cache.hits()), (2, 0));
        assert_eq!(sr.verify_cached(Asn(3), &keys, Some(&cache)), Ok(()));
        assert_eq!((cache.calls(), cache.hits()), (4, 2));
        let (calls, hits, entries) = cache.export_state();
        assert_eq!((calls, hits, entries.len()), (4, 2, 4), "two attestations, two roots");
        cache.load_state((calls, hits, entries));
        assert_eq!((cache.calls(), cache.root_verifies()), (4, 2));
    }

    /// The chain `signers[0] → … → signers[hops-1]`, each hop but the
    /// last a batch of one toward the next signer, ending in one export
    /// of the last signer to every one of `targets`, salted from `seed`.
    fn export_fixture(
        addr: u32,
        hops: usize,
        first: usize,
        targets: &[Asn],
        seed: u64,
    ) -> Vec<SignedRoute> {
        let (ids, _) = shared_setup();
        let signers: Vec<&Arc<Identity>> = (0..hops).map(|h| &ids[(first + h) % 4]).collect();
        let asn = |signer: &Arc<Identity>| Asn(signer.id() as u32);
        let mut route = Route::originate(Prefix::new(addr, 24));
        route.path = AsPath::from_slice(&[asn(signers[0])]);
        let mut below: Option<SignedRoute> = None;
        for pair in signers.windows(2) {
            below = Some(match &below {
                None => SignedRoute::originate(pair[0], route.clone(), asn(pair[1])),
                Some(received) => {
                    SignedRoute::extend(received, pair[0], route.clone(), asn(pair[1]))
                }
            });
            route = route.propagated_by(asn(pair[1]));
        }
        let mut salts = vec![[0; SALT_LEN]; targets.len()];
        HmacDrbg::from_u64_labeled(seed, "sbgp test salts").generate(salts.as_flattened_mut());
        SignedRoute::export(below.as_ref(), signers[hops - 1], &route, targets, &salts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every recipient of one export holds a chain that verifies for
        /// it and for no other receiver, and for nobody who lacks the
        /// exporter's key; the batch costs one root verify per cache;
        /// any decodable change to the newest attestation's bytes —
        /// fields, salt, index, size, siblings, signature — fails it,
        /// and so does its leaf under another export's siblings and
        /// signature; and its digest is the decoded twin's.
        #[test]
        fn every_recipient_of_a_batch_verifies_alone(
            addr in any::<u32>(),
            hops in 1usize..=4,
            first in 0usize..4,
            fan_out in 1usize..=64,
            spacing in 1u32..40,
            seed in any::<u64>(),
        ) {
            let (ids, keys) = shared_setup();
            let targets: Vec<Asn> = (0..fan_out as u32).map(|i| Asn(5 + i * spacing)).collect();
            let routes = export_fixture(addr, hops, first, &targets, seed);
            prop_assert_eq!(routes.len(), fan_out);
            let exporter = &ids[(first + hops - 1) % 4];
            let mut strangers = KeyStore::new();
            for id in ids.iter().filter(|id| id.id() != exporter.id()) {
                strangers.register_identity(id);
            }
            let unknown = Err(SbgpError::BadSignature(Asn(exporter.id() as u32)));
            let cache = VerifyCache::new();
            for (i, sr) in routes.iter().enumerate() {
                prop_assert_eq!(sr.encoded_len(), sr.to_wire().len());
                prop_assert_eq!(sr.verify(targets[i], keys), Ok(()));
                prop_assert_eq!(sr.verify(targets[i], &strangers), unknown.clone());
                prop_assert_eq!(sr.verify_cached(targets[i], keys, Some(&cache)), Ok(()));
                let other = targets[(i + 1) % fan_out];
                for receiver in [other, Asn(4)].into_iter().filter(|&r| r != targets[i]) {
                    let wrong = sr.verify_cached(receiver, keys, Some(&cache));
                    prop_assert!(matches!(wrong, Err(SbgpError::WrongTarget { .. })), "{wrong:?}");
                }
            }
            prop_assert_eq!(cache.root_verifies(), hops as u64, "one RSA verify per batch");

            let k = (seed % fan_out as u64) as usize;
            let sr = &routes[k];
            let mut atts = sr.chain().to_vec();
            let top = atts.pop().expect("a signed route");
            let below = AttestationChain::from_attestations(atts);
            let decoded = below.push(top.clone());
            prop_assert_eq!(&decoded, sr.chain());
            let wire = top.to_wire();
            let mut changed = 0;
            for offset in 0..wire.len() {
                let mut bytes = wire.clone();
                bytes[offset] ^= 1 << (offset % 8);
                let Ok(mutated) = pvr_crypto::decode_exact::<Attestation>(&bytes) else { continue };
                if mutated == top {
                    continue;
                }
                changed += 1;
                let forged = SignedRoute::with_chain(sr.route.clone(), below.push(mutated));
                prop_assert!(forged.verify(targets[k], keys).is_err(), "byte {offset} went unnoticed");
                prop_assert!(forged.verify_cached(targets[k], keys, Some(&cache)).is_err());
            }
            prop_assert!(changed > wire.len() / 2, "only {changed} of {} flips decoded", wire.len());

            let other = export_fixture(addr, hops, first, &targets, seed ^ 1);
            let Attestation { siblings, signature, .. } = other[k].chain().newest().unwrap();
            let replayed = below.push(Attestation { siblings, signature, ..top });
            let replayed = SignedRoute::with_chain(sr.route.clone(), replayed);
            prop_assert!(replayed.verify(targets[k], keys).is_err(), "another export's root");
            prop_assert!(replayed.verify_cached(targets[k], keys, Some(&cache)).is_err());
        }
    }

    /// The memo of known tree nodes changes no verdict and no counter:
    /// the leaves of one 45-leaf export, verified in a shuffled order
    /// through one cache (all but the first stopping at a node an
    /// earlier leaf marked), read what their decoded copies, which
    /// always walk to the root, read through another. Once the memo
    /// holds the export, a decoded leaf with an upper sibling flipped
    /// still fails, and so do leaves of the same tree signed by another
    /// key under the signer's number.
    #[test]
    fn known_nodes_change_no_verdict() {
        let (ids, keys) = shared_setup();
        let targets: Vec<Asn> = (0..45).map(|i| Asn(5 + 3 * i)).collect();
        let mut salts = vec![[0; SALT_LEN]; targets.len()];
        HmacDrbg::new(b"known salts").generate(salts.as_flattened_mut());
        let mut route = Route::originate(Prefix::new(9 << 8, 24));
        route.path = AsPath::from_slice(&[Asn(3)]);
        let export = |signer| SignedRoute::export(None, signer, &route, &targets, &salts);
        let routes = export(&ids[2]);
        let given = |sr: &SignedRoute| {
            let chain = AttestationChain::from_attestations(sr.chain().to_vec());
            SignedRoute::with_chain(sr.route.clone(), chain)
        };
        let mut order: Vec<usize> = (0..routes.len()).collect();
        HmacDrbg::new(b"known nodes").shuffle(&mut order);
        let (made_cache, given_cache) = (VerifyCache::new(), VerifyCache::new());
        for &i in order.iter().chain(&order[..5]) {
            let made = routes[i].verify_cached(targets[i], keys, Some(&made_cache));
            assert_eq!(made, Ok(()), "leaf {i}");
            assert_eq!(given(&routes[i]).verify_cached(targets[i], keys, Some(&given_cache)), made);
        }
        for cache in [&made_cache, &given_cache] {
            assert_eq!((cache.calls(), cache.hits(), cache.root_verifies()), (50, 5, 1));
        }
        assert_eq!(made_cache.export_state(), given_cache.export_state());
        let memo = lock(&made_cache.memo);
        assert_eq!(memo.known.at.len(), 1, "one export");
        let marked: u32 = memo.known.bits.iter().map(|word| word.count_ones()).sum();
        assert_eq!(marked, 45 + 23 + 12 + 6 + 3 + 2 + 1, "every node known");
        drop(memo);
        assert!(lock(&given_cache.memo).known.at.is_empty(), "decoded leaves mark nothing");

        let k = order[0];
        let mut atts = routes[k].chain().to_vec();
        let top = atts.last_mut().expect("a signed route");
        top.siblings.last_mut().expect("a sibling below the root").0[0] ^= 1;
        let forged = SignedRoute::with_chain(
            routes[k].route.clone(),
            AttestationChain::from_attestations(atts),
        );
        let rejected = Err(SbgpError::BadSignature(Asn(3)));
        assert_eq!(forged.verify_cached(targets[k], keys, Some(&made_cache)), rejected);
        assert_eq!(forged.verify(targets[k], keys), rejected);

        let rogue = Arc::new(Identity::generate(3, 512, &mut HmacDrbg::new(b"rogue AS3")));
        let rogue_routes = export(&rogue);
        for &k in &order[1..4] {
            let rogue_route = &rogue_routes[k];
            assert_eq!(rogue_route.verify_cached(targets[k], keys, Some(&made_cache)), rejected);
            assert_eq!(rogue_route.verify(targets[k], keys), rejected);
        }
    }

    /// Two exports by one signer, to the same targets but of other
    /// prefixes, verified leaf by leaf through one cache and interleaved:
    /// each tree's leaves are rebuilt on its own shared part, so every
    /// leaf verifies, each tree costs one root verify, and the cache ends
    /// with the verdicts a cache per export would hold.
    #[test]
    fn one_signers_exports_keep_their_own_leaf_parts() {
        let (ids, keys) = shared_setup();
        let targets: Vec<Asn> = (0..9).map(|i| Asn(5 + 2 * i)).collect();
        let mut salts = vec![[0; SALT_LEN]; targets.len()];
        HmacDrbg::new(b"two exports").generate(salts.as_flattened_mut());
        let export = |prefix: Prefix| {
            let mut route = Route::originate(prefix);
            route.path = AsPath::from_slice(&[Asn(3)]);
            SignedRoute::export(None, &ids[2], &route, &targets, &salts)
        };
        let exports = [export(Prefix::new(9 << 8, 24)), export(Prefix::new(10 << 16, 16))];
        let (shared, alone) = (VerifyCache::new(), [VerifyCache::new(), VerifyCache::new()]);
        for i in 0..targets.len() {
            for (routes, own) in exports.iter().zip(&alone) {
                assert_eq!(routes[i].verify_cached(targets[i], keys, Some(&shared)), Ok(()), "{i}");
                assert_eq!(routes[i].verify_cached(targets[i], keys, Some(own)), Ok(()), "{i}");
            }
        }
        assert_eq!((shared.calls(), shared.hits(), shared.root_verifies()), (18, 0, 2));
        assert_eq!(lock(&shared.memo).known.at.len(), 2, "one entry per tree");
        let mut each: Vec<_> = alone.iter().flat_map(|cache| cache.export_state().2).collect();
        each.sort_unstable_by_key(|&(signer, digest, _)| (signer, digest));
        assert_eq!(shared.export_state().2, each);
    }

    /// One-leaf exports are the eager constructors: `originate` and
    /// `extend` make a batch of one, byte for byte. An export to nobody
    /// is no route, and a recipient's attestation grows by one sibling
    /// per doubling of the batch.
    #[test]
    fn a_batch_of_one_is_the_eager_attestation() {
        let (ids, keys) = shared_setup();
        assert!(export_fixture(7 << 8, 3, 0, &[], 0).is_empty());
        let newest_len = |n: u32| {
            let targets: Vec<Asn> = (0..n).map(|i| Asn(10 + i)).collect();
            let routes = export_fixture(7 << 8, 1, 0, &targets, 0);
            routes[0].chain().newest().expect("a signed route").encoded_len()
        };
        assert_eq!(newest_len(1024), newest_len(4) + 8 * 32, "eight more levels of siblings");
        let routes = export_fixture(7 << 8, 3, 0, &[Asn(9)], 0);
        let mut route = Route::originate(Prefix::new(7 << 8, 24));
        route.path = AsPath::from_slice(&[Asn(1)]);
        let hop1 = SignedRoute::originate(&ids[0], route.clone(), Asn(2));
        let hop2 = SignedRoute::extend(&hop1, &ids[1], route.propagated_by(Asn(2)), Asn(3));
        let next = hop2.route.clone().propagated_by(Asn(3));
        let eager = SignedRoute::extend(&hop2, &ids[2], next.clone(), Asn(9));
        assert_eq!(eager.verify(Asn(9), keys), Ok(()));
        let lone = export_one(Some(&hop2), &ids[2], next, Asn(9), None);
        assert_eq!(lone.to_wire(), eager.to_wire());
        assert_eq!(lone, eager);
        let top = eager.chain().newest().unwrap();
        assert_eq!((top.index, top.size, top.siblings.len(), top.salt), (0, 1, 0, LONE_SALT));
        assert_eq!(routes[0].verify(Asn(9), keys), Ok(()));
        assert_ne!(routes[0], eager, "the fixture's salt is drawn");
    }

    /// Two exports that differ only in their other targets hand a
    /// shared recipient the same leaf — only the sibling hashes and the
    /// root's signature differ — and no sibling is the unsalted leaf of
    /// any candidate target, so the recipient cannot test where else
    /// the route went. Without salts it could.
    #[test]
    fn salts_hide_co_recipients() {
        let (ids, keys) = shared_setup();
        let mut route = Route::originate(prefix());
        route.path = AsPath::from_slice(&[Asn(1)]);
        let export = |targets: [u32; 3], salts: [Salt; 3]| {
            let routes = SignedRoute::export(None, &ids[0], &route, &targets.map(Asn), &salts);
            routes.into_iter().next().expect("three recipients")
        };
        let mut salts = [[0; SALT_LEN]; 3];
        HmacDrbg::new(b"co-recipients").generate(salts.as_flattened_mut());
        let a = export([10, 20, 30], salts).chain().newest().unwrap();
        let b = export([10, 40, 50], salts).chain().newest().unwrap();
        assert_ne!(a.siblings, b.siblings);
        assert_ne!(a.signature, b.signature);
        let same = |att: &Attestation| Attestation {
            siblings: Vec::new(),
            signature: RsaSignature(Vec::new()),
            ..att.clone()
        };
        assert_eq!(same(&a), same(&b));
        for att in [&a, &b] {
            let route = SignedRoute::with_chain(
                route.clone(),
                AttestationChain::from_attestations(vec![att.clone()]),
            );
            assert_eq!(route.verify(Asn(10), keys), Ok(()));
        }

        // What a recipient could compute for a candidate target: its
        // leaf, with every salt it might guess being none.
        let unsalted = |index: u64, target: u32| {
            let mut buf = Vec::new();
            let fields = Fields {
                prefix: prefix(),
                path: &route.path,
                target: Asn(target),
                signer: Asn(1),
                salt: &LONE_SALT,
            };
            lone_leaf(&mut buf, index as u32, &fields, &Digest::ZERO)
        };
        let guesses: Vec<Digest> =
            (0..3).flat_map(|i| (1..=100).map(move |t| unsalted(i, t))).collect();
        for sibling in a.siblings.iter().chain(&b.siblings) {
            assert!(!guesses.contains(sibling), "a sibling is a guessable leaf");
        }
        let bare = export([10, 20, 30], [LONE_SALT; 3]).chain().newest().unwrap();
        assert!(guesses.contains(&bare.siblings[0]), "without salts, AS20's leaf is guessable");
    }
}
