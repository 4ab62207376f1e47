//! Signed root commitments and equivocation evidence.
//!
//! §3.6: "Each network simply computes the hash value of its MHT's root
//! node, signs that hash value, and publishes it to its neighbors. The
//! neighbors can then gossip about the hash value to ensure that they
//! all have the same view of the MHT." A network that shows different
//! roots to different neighbors for the same decision epoch has
//! *equivocated*; the two conflicting signed roots are self-contained,
//! third-party-verifiable evidence.

use pvr_crypto::encoding::Wire;
use pvr_crypto::keys::{Identity, KeyStore, PrincipalId};
use pvr_crypto::rsa::RsaSignature;
use pvr_crypto::sha256::Digest;
use pvr_crypto::CryptoError;

/// A context string distinguishing commitment streams (e.g. one per
/// (prefix, decision round)); equivocation is only meaningful within a
/// single context.
pub type CommitContext = Vec<u8>;

/// A network's signed commitment to an MHT root for one decision epoch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedRoot {
    /// The committing network.
    pub signer: PrincipalId,
    /// What decision this root commits (e.g. prefix + round).
    pub context: CommitContext,
    /// Monotonic epoch within the context.
    pub epoch: u64,
    /// The MHT root hash.
    pub root: Digest,
    /// Signature over the canonical encoding of the above.
    pub signature: RsaSignature,
}

impl SignedRoot {
    /// Canonical bytes covered by the signature.
    fn signed_bytes(signer: PrincipalId, context: &[u8], epoch: u64, root: &Digest) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + context.len());
        buf.extend_from_slice(b"pvr.signedroot.v1");
        signer.encode(&mut buf);
        u8::encode_slice(context, &mut buf);
        epoch.encode(&mut buf);
        root.encode(&mut buf);
        buf
    }

    /// Creates and signs a root commitment.
    pub fn create(
        identity: &Identity,
        context: CommitContext,
        epoch: u64,
        root: Digest,
    ) -> SignedRoot {
        let bytes = Self::signed_bytes(identity.id(), &context, epoch, &root);
        SignedRoot { signer: identity.id(), context, epoch, root, signature: identity.sign(&bytes) }
    }

    /// Verifies the signature against the key store.
    pub fn verify(&self, keys: &KeyStore) -> Result<(), CryptoError> {
        let bytes = Self::signed_bytes(self.signer, &self.context, self.epoch, &self.root);
        keys.verify(self.signer, &bytes, &self.signature)
    }
}

pvr_crypto::wire_struct!(SignedRoot { signer, context, epoch, root, signature });

/// Two conflicting signed roots: proof that `signer` equivocated.
///
/// This is the paper's Evidence property in its purest form — the pair
/// of signatures convinces any third party with the signer's public key,
/// with no trust in the accuser.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EquivocationEvidence {
    /// First signed root.
    pub a: SignedRoot,
    /// Conflicting signed root.
    pub b: SignedRoot,
}

impl EquivocationEvidence {
    /// Checks whether two signed roots conflict; returns evidence if so.
    ///
    /// Roots conflict when signer, context, and epoch all match but the
    /// root hashes differ.
    pub fn try_from_pair(a: &SignedRoot, b: &SignedRoot) -> Option<EquivocationEvidence> {
        if a.signer == b.signer && a.context == b.context && a.epoch == b.epoch && a.root != b.root
        {
            Some(EquivocationEvidence { a: a.clone(), b: b.clone() })
        } else {
            None
        }
    }

    /// Third-party judgment: both signatures valid ⟹ the signer is
    /// provably faulty (Accuracy: a correct signer never signs two
    /// different roots for one epoch, so this can never hold for it).
    pub fn judge(&self, keys: &KeyStore) -> Result<PrincipalId, CryptoError> {
        if self.a.signer != self.b.signer
            || self.a.context != self.b.context
            || self.a.epoch != self.b.epoch
            || self.a.root == self.b.root
        {
            return Err(CryptoError::Malformed("roots do not conflict"));
        }
        self.a.verify(keys)?;
        self.b.verify(keys)?;
        Ok(self.a.signer)
    }
}

pvr_crypto::wire_struct!(EquivocationEvidence { a, b });

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::drbg::HmacDrbg;
    use pvr_crypto::sha256::sha256;

    fn setup() -> (Identity, KeyStore) {
        let mut rng = HmacDrbg::new(b"signed root tests");
        let id = Identity::generate(10, 512, &mut rng);
        let mut keys = KeyStore::new();
        keys.register_identity(&id);
        (id, keys)
    }

    #[test]
    fn create_and_verify() {
        let (id, keys) = setup();
        let sr = SignedRoot::create(&id, b"prefix/8".to_vec(), 1, sha256(b"root"));
        assert!(sr.verify(&keys).is_ok());
    }

    #[test]
    fn tampered_root_rejected() {
        let (id, keys) = setup();
        let mut sr = SignedRoot::create(&id, b"ctx".to_vec(), 1, sha256(b"root"));
        sr.root = sha256(b"other");
        assert!(sr.verify(&keys).is_err());
    }

    #[test]
    fn tampered_epoch_rejected() {
        let (id, keys) = setup();
        let mut sr = SignedRoot::create(&id, b"ctx".to_vec(), 1, sha256(b"root"));
        sr.epoch = 2;
        assert!(sr.verify(&keys).is_err());
    }

    #[test]
    fn equivocation_detected_and_judged() {
        let (id, keys) = setup();
        let a = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"view for B"));
        let b = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"view for N1"));
        let ev = EquivocationEvidence::try_from_pair(&a, &b).expect("conflict");
        assert_eq!(ev.judge(&keys).unwrap(), 10);
    }

    #[test]
    fn consistent_roots_are_not_evidence() {
        let (id, _) = setup();
        let a = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"same"));
        let b = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"same"));
        assert!(EquivocationEvidence::try_from_pair(&a, &b).is_none());
    }

    #[test]
    fn different_epochs_are_not_evidence() {
        let (id, _) = setup();
        let a = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"r1"));
        let b = SignedRoot::create(&id, b"ctx".to_vec(), 6, sha256(b"r2"));
        assert!(EquivocationEvidence::try_from_pair(&a, &b).is_none());
    }

    #[test]
    fn different_contexts_are_not_evidence() {
        let (id, _) = setup();
        let a = SignedRoot::create(&id, b"ctx1".to_vec(), 5, sha256(b"r1"));
        let b = SignedRoot::create(&id, b"ctx2".to_vec(), 5, sha256(b"r2"));
        assert!(EquivocationEvidence::try_from_pair(&a, &b).is_none());
    }

    #[test]
    fn forged_evidence_rejected_by_judge() {
        // Accuracy: an accuser cannot frame a correct network by altering
        // one of the roots — the signature check fails.
        let (id, keys) = setup();
        let a = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"r1"));
        let mut b = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"r1"));
        b.root = sha256(b"forged"); // altered after signing
        let ev = EquivocationEvidence { a, b };
        assert!(ev.judge(&keys).is_err());
    }

    #[test]
    fn malformed_evidence_rejected_by_judge() {
        let (id, keys) = setup();
        let a = SignedRoot::create(&id, b"ctx".to_vec(), 5, sha256(b"r1"));
        let ev = EquivocationEvidence { a: a.clone(), b: a };
        assert!(ev.judge(&keys).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let (id, keys) = setup();
        let sr = SignedRoot::create(&id, b"ctx".to_vec(), 3, sha256(b"r"));
        let back: SignedRoot = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
        assert!(back.verify(&keys).is_ok());
    }
}
