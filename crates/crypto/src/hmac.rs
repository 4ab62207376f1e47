//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the HMAC-DRBG deterministic random bit generator
//! ([`crate::drbg`]) and for keyed blinding derivation in the Merkle hash
//! tree crate. Verified against the RFC 4231 test vectors.
//!
//! A MAC under a fresh key costs four SHA-256 compressions for a short
//! message: `K⊕ipad`, the message block, `K⊕opad`, the inner digest.
//! The two pad blocks depend on the key alone, so [`HmacKey`] absorbs
//! them once and every further MAC under that key costs two.

use crate::sha256::{sha256, Digest, Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA-256 key, held as the two chaining values left after
/// absorbing `K⊕ipad` and `K⊕opad`.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares `key` (any length) for MACing.
    pub fn new(key: &[u8]) -> HmacKey {
        // Keys longer than the block size are hashed first, per RFC 2104.
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(sha256(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            inner: Sha256::after_block(&k.map(|b| b ^ 0x36)),
            outer: Sha256::after_block(&k.map(|b| b ^ 0x5c)),
        }
    }

    /// The MAC of the concatenation of `parts`, without allocating it.
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::resume(self.inner);
        for p in parts {
            inner.update(p);
        }
        let mut outer = Sha256::resume(self.outer);
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[message])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256_concat;
    use proptest::prelude::*;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hmac_sha256(&key, b"Hi There").to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hmac_sha256(b"Jefe", b"what do ya want for nothing?").to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hmac_sha256(&key, &data).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // 131-byte key: exercises the hash-the-key path.
        let key = [0xaau8; 131];
        assert_eq!(
            hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First").to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn one_key_macs_many_messages() {
        let key = HmacKey::new(b"Jefe");
        for msg in [b"what do ya want ".as_slice(), b"for nothing?", b""] {
            assert_eq!(key.mac(&[msg]), hmac_sha256(b"Jefe", msg));
        }
        assert_eq!(
            key.mac(&[b"what do ya want ", b"for nothing?"]).to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    /// RFC 2104 written out: `H(K⊕opad ‖ H(K⊕ipad ‖ text))`, `K` hashed
    /// first when longer than a block, zero-padded to one otherwise.
    fn rfc2104(key: &[u8], parts: &[&[u8]]) -> Digest {
        let hashed;
        let key = if key.len() > BLOCK_LEN {
            hashed = sha256(key);
            hashed.as_bytes()
        } else {
            key
        };
        let mut k = [0u8; BLOCK_LEN];
        k[..key.len()].copy_from_slice(key);
        let ipad = k.map(|b| b ^ 0x36);
        let opad = k.map(|b| b ^ 0x5c);
        let mut inner_parts: Vec<&[u8]> = vec![&ipad];
        inner_parts.extend_from_slice(parts);
        let inner = sha256_concat(&inner_parts);
        sha256_concat(&[&opad, inner.as_bytes()])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_keyed_mac_equals_rfc2104(
            // 0..=3 picks a key length below, at, just above and well above one block.
            key_class in 0usize..4,
            key_fill in proptest::collection::vec(any::<u8>(), 200),
            short_len in 0usize..BLOCK_LEN,
            parts in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..150), 0..4),
        ) {
            let key_len = [short_len, BLOCK_LEN, BLOCK_LEN + 1, 200][key_class];
            let key = &key_fill[..key_len];
            let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(HmacKey::new(key).mac(&parts), rfc2104(key, &parts));
            prop_assert_eq!(hmac_sha256(key, &parts.concat()), rfc2104(key, &parts));
        }
    }
}
