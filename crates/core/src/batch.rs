//! Batched signing of update bursts (§3.8, experiment E5).
//!
//! "A RSA-1024 signature takes about two milliseconds on current
//! hardware. This overhead can be burdensome during BGP message bursts,
//! but it seems feasible to sign messages in batches, perhaps using a
//! small MHT to reveal batched routes individually."
//!
//! The sender builds a [`SeqTree`] over the burst, signs its root once,
//! and ships each receiver its item plus a log-size path. Receivers
//! verify one signature per burst instead of one per update.

use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::CryptoError;
use pvr_mht::{SeqProof, SeqTree, SignedRoot};

/// Context string for batch roots (distinguishes them from PVR round
/// roots in the signature domain).
fn batch_context(batch_id: u64) -> Vec<u8> {
    let mut ctx = b"pvr.batch".to_vec();
    ctx.extend_from_slice(&batch_id.to_be_bytes());
    ctx
}

/// A burst of updates signed with one signature.
pub struct SignedBatch {
    /// The signed tree root.
    pub signed_root: SignedRoot,
    tree: SeqTree,
}

impl SignedBatch {
    /// Signs `items` (serialized updates) as batch number `batch_id`.
    pub fn sign(identity: &Identity, batch_id: u64, items: &[Vec<u8>]) -> SignedBatch {
        let tree = SeqTree::build(items);
        let signed_root = SignedRoot::create(identity, batch_context(batch_id), 0, tree.root());
        SignedBatch { signed_root, tree }
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Extracts the deliverable for item `index`: proof + shared root.
    pub fn item(&self, index: usize) -> Option<BatchItem> {
        Some(BatchItem { signed_root: self.signed_root.clone(), proof: self.tree.prove(index)? })
    }
}

/// One update as delivered to a receiver: the item's Merkle proof plus
/// the (shared) signed root.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The signed batch root.
    pub signed_root: SignedRoot,
    /// Inclusion proof for this item.
    pub proof: SeqProof,
}

impl BatchItem {
    /// Verifies signature and inclusion; returns the item bytes.
    pub fn verify(&self, keys: &KeyStore) -> Result<&[u8], CryptoError> {
        self.signed_root.verify(keys)?;
        if !self.proof.verify(&self.signed_root.root) {
            return Err(CryptoError::SignatureInvalid);
        }
        Ok(&self.proof.item)
    }

    /// Wire size of the per-item delivery (proof + root), for E5's
    /// bytes-per-update series.
    pub fn byte_size(&self) -> usize {
        use pvr_crypto::Wire;
        self.signed_root.encoded_len() + self.proof.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::drbg::HmacDrbg;

    fn setup() -> (Identity, KeyStore) {
        let mut rng = HmacDrbg::new(b"batch tests");
        let id = Identity::generate(100, 512, &mut rng);
        let mut keys = KeyStore::new();
        keys.register_identity(&id);
        (id, keys)
    }

    fn updates(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("update {i}").into_bytes()).collect()
    }

    #[test]
    fn batch_items_verify() {
        let (id, keys) = setup();
        let batch = SignedBatch::sign(&id, 7, &updates(10));
        assert_eq!(batch.len(), 10);
        for i in 0..10 {
            let item = batch.item(i).unwrap();
            assert_eq!(item.verify(&keys).unwrap(), format!("update {i}").as_bytes());
        }
        assert!(batch.item(10).is_none());
    }

    #[test]
    fn tampered_item_rejected() {
        let (id, keys) = setup();
        let batch = SignedBatch::sign(&id, 7, &updates(4));
        let mut item = batch.item(2).unwrap();
        item.proof.item = b"forged".to_vec();
        assert!(item.verify(&keys).is_err());
    }

    #[test]
    fn cross_batch_replay_rejected() {
        // An item from batch 1 cannot be presented under batch 2's root.
        let (id, keys) = setup();
        let b1 = SignedBatch::sign(&id, 1, &updates(4));
        let b2 = SignedBatch::sign(&id, 2, &updates(5));
        let mut item = b1.item(0).unwrap();
        item.signed_root = b2.signed_root.clone();
        assert!(item.verify(&keys).is_err());
    }

    #[test]
    fn unknown_signer_rejected() {
        let (id, _) = setup();
        let empty_keys = KeyStore::new();
        let batch = SignedBatch::sign(&id, 1, &updates(2));
        assert!(batch.item(0).unwrap().verify(&empty_keys).is_err());
    }

    #[test]
    fn singleton_and_empty_batches() {
        let (id, keys) = setup();
        let batch = SignedBatch::sign(&id, 1, &updates(1));
        assert!(batch.item(0).unwrap().verify(&keys).is_ok());
        let empty = SignedBatch::sign(&id, 2, &[]);
        assert!(empty.is_empty());
        assert!(empty.item(0).is_none());
    }

    #[test]
    fn item_size_grows_logarithmically() {
        let (id, _) = setup();
        let small = SignedBatch::sign(&id, 1, &updates(4));
        let large = SignedBatch::sign(&id, 2, &updates(1024));
        let s = small.item(0).unwrap().byte_size();
        let l = large.item(0).unwrap().byte_size();
        // 1024 items vs 4: proof grows by ~8 sibling hashes, far less
        // than linear.
        assert!(l < s + 9 * 40, "l={l} s={s}");
    }
}
