//! # pvr-mht — Merkle hash trees for commitment and selective disclosure
//!
//! Implements the paper's §3.6 construction and its §3.8 batching trick:
//!
//! * [`label`] — prefix-free bitstring labels (`var(v)` / `rule(x)` /
//!   protocol slots), the address space of the conceptual tree;
//! * [`trie`] — the sparse MHT: instantiated leaves, path nodes, and
//!   **blinded phantom siblings** indistinguishable from real subtree
//!   hashes, so a disclosure "does not reveal the presence or absence of
//!   any vertices other than x"; and [`ProofBatch`], which checks the
//!   proofs of one disclosure against one root hashing each tree node
//!   they share once, with the verdicts of [`InclusionProof::verify`];
//! * [`seqtree`] — the "small MHT" for signing BGP update bursts in
//!   batches and revealing routes individually;
//! * [`signed_root`] — signed root commitments, gossiped among neighbors,
//!   and self-contained [`signed_root::EquivocationEvidence`].

pub mod label;
pub mod seqtree;
pub mod signed_root;
pub mod trie;

pub use label::{BitString, Label};
pub use seqtree::{SeqProof, SeqTree};
pub use signed_root::{CommitContext, EquivocationEvidence, SignedRoot};
pub use trie::{unblinded_phantom, InclusionProof, ProofBatch, SiblingBlinding, SparseMht};
