//! RSA key generation, PKCS#1 v1.5 signatures, and the raw trapdoor
//! permutation used by the ring-signature scheme.
//!
//! The paper's overhead argument (§3.8) is built on "a public-key
//! signature scheme (such as RSA); a RSA-1024 signature takes about two
//! milliseconds on current hardware". We implement RSA from scratch on
//! top of [`crate::bignum`]: key generation with `e = 65537`, CRT-based
//! private-key operations, and EMSA-PKCS1-v1_5 signature encoding with a
//! SHA-256 `DigestInfo`. Benchmark E3 regenerates the 2 ms claim.
//!
//! **Not production crypto**: arithmetic is variable-time and there is no
//! blinding. Fine for a research simulator, never for deployment.

use crate::bignum::Ubig;
use crate::drbg::HmacDrbg;
use crate::error::CryptoError;
use crate::montgomery::Montgomery;
use crate::prime::gen_rsa_prime;
use crate::sha256::sha256;
use std::sync::OnceLock;

/// ASN.1 DER `DigestInfo` prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: Ubig,
    e: Ubig,
    /// Modulus size in bytes, cached for encoding.
    k: usize,
    /// Montgomery context for `n`, built on first use so repeated
    /// verifies pay the REDC precomputation once per key.
    mont: OnceLock<Montgomery>,
}

// Key identity is `(n, e)`; the lazily built Montgomery cache is
// derived state and must not affect equality (a key that has verified
// something equals a fresh copy that has not).
impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey").field("n", &self.n).field("e", &self.e).finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    /// Retained for cross-checking the CRT path in tests; the CRT
    /// parameters below are what `raw_private` actually uses.
    #[cfg_attr(not(test), allow(dead_code))]
    d: Ubig,
    p: Ubig,
    q: Ubig,
    d_p: Ubig,
    d_q: Ubig,
    q_inv: Ubig,
    /// Built on first use so repeated signs pay the REDC
    /// precomputation once per key.
    crt: OnceLock<CrtContexts>,
}

/// What the CRT private operation reuses across calls.
#[derive(Clone)]
struct CrtContexts {
    /// Montgomery contexts for the (odd) CRT primes.
    p: Montgomery,
    q: Montgomery,
    /// `q_inv` in Montgomery form mod `p`, so the recombination's
    /// `q_inv · (m1 - m2) mod p` is a single REDC product.
    q_inv_mont: Ubig,
}

/// A detached RSA signature (always exactly modulus-size bytes).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RsaSignature(pub Vec<u8>);

crate::wire_struct!(RsaSignature { 0 });

impl std::fmt::Debug for RsaSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaSignature({} bytes)", self.0.len())
    }
}

impl RsaPublicKey {
    /// Modulus.
    pub fn n(&self) -> &Ubig {
        &self.n
    }

    /// Public exponent.
    pub fn e(&self) -> &Ubig {
        &self.e
    }

    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.k
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// The cached Montgomery context for `n` (every RSA modulus is a
    /// product of odd primes, hence odd).
    fn mont(&self) -> &Montgomery {
        self.mont.get_or_init(|| Montgomery::new(&self.n).expect("RSA modulus is odd"))
    }

    /// Raw RSA public operation `m^e mod n` (textbook; used by the ring
    /// signature's trapdoor permutation, not directly for signing).
    pub fn raw_public(&self, m: &Ubig) -> Ubig {
        self.mont().pow(m, &self.e)
    }

    /// Raw public operation on the pre-Montgomery schoolbook path.
    /// Kept as the measured baseline for experiment E13 and the
    /// crypto benches, and as the equivalence oracle in tests.
    pub fn raw_public_schoolbook(&self, m: &Ubig) -> Ubig {
        m.modpow_schoolbook(&self.e, &self.n)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &RsaSignature) -> Result<(), CryptoError> {
        self.verify_with(message, sig, |s| self.raw_public(s))
    }

    /// [`RsaPublicKey::verify`] on the schoolbook exponentiation path
    /// (the E13/bench baseline; verdicts are always identical).
    pub fn verify_schoolbook(&self, message: &[u8], sig: &RsaSignature) -> Result<(), CryptoError> {
        self.verify_with(message, sig, |s| self.raw_public_schoolbook(s))
    }

    fn verify_with(
        &self,
        message: &[u8],
        sig: &RsaSignature,
        raw: impl Fn(&Ubig) -> Ubig,
    ) -> Result<(), CryptoError> {
        if sig.0.len() != self.k {
            return Err(CryptoError::SignatureInvalid);
        }
        let s = Ubig::from_bytes_be(&sig.0);
        if s >= self.n {
            return Err(CryptoError::SignatureInvalid);
        }
        let em = raw(&s).to_bytes_be_padded(self.k);
        let expected = emsa_pkcs1_v15(message, self.k)?;
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::SignatureInvalid)
        }
    }

    /// A short fingerprint of the key (hash of `n || e`), used as a key
    /// identifier in key stores and evidence records.
    pub fn fingerprint(&self) -> [u8; 8] {
        let d = crate::sha256::sha256_concat(&[&self.n.to_bytes_be(), &self.e.to_bytes_be()]);
        let mut out = [0u8; 8];
        out.copy_from_slice(&d.as_bytes()[..8]);
        out
    }
}

impl RsaPrivateKey {
    /// Whether [`generate`](Self::generate) accepts a modulus of `bits`
    /// bits: even and within 128..=16384. Callers holding a size from
    /// outside the program (a checkpoint's options) ask here first.
    pub fn supports(bits: usize) -> bool {
        (128..=16_384).contains(&bits) && bits % 2 == 0
    }

    /// Generates a fresh RSA key pair with a modulus of `bits` bits.
    ///
    /// `bits` must satisfy [`supports`](Self::supports) (tests use small
    /// keys for speed; the benchmarks use 1024/2048 to regenerate the
    /// paper's numbers).
    pub fn generate(bits: usize, rng: &mut HmacDrbg) -> RsaPrivateKey {
        assert!(Self::supports(bits), "unsupported RSA size {bits}");
        let e = Ubig::from_u64(65537);
        loop {
            let p = gen_rsa_prime(bits / 2, &e, rng);
            let q = gen_rsa_prime(bits / 2, &e, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = Ubig::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let d = match e.modinv(&phi) {
                Some(d) => d,
                None => continue,
            };
            let d_p = d.rem(&p.sub(&one));
            let d_q = d.rem(&q.sub(&one));
            let q_inv = match q.modinv(&p) {
                Some(qi) => qi,
                None => continue,
            };
            let k = bits / 8;
            return RsaPrivateKey {
                public: RsaPublicKey { n, e, k, mont: OnceLock::new() },
                d,
                p,
                q,
                d_p,
                d_q,
                q_inv,
                crt: OnceLock::new(),
            };
        }
    }

    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    fn crt(&self) -> &CrtContexts {
        self.crt.get_or_init(|| {
            let p = Montgomery::new(&self.p).expect("RSA prime is odd");
            let q = Montgomery::new(&self.q).expect("RSA prime is odd");
            let q_inv_mont = p.to_mont(&self.q_inv);
            CrtContexts { p, q, q_inv_mont }
        })
    }

    /// Raw RSA private operation `c^d mod n`, accelerated with the CRT.
    pub fn raw_private(&self, c: &Ubig) -> Ubig {
        // m1 = c^dP mod p ; m2 = c^dQ mod q ; h = qInv (m1 - m2) mod p
        let crt = self.crt();
        let m1 = crt.p.pow(c, &self.d_p);
        let m2 = crt.q.pow(c, &self.d_q);
        let diff = if m1 >= m2 {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p with wraparound.
            self.p.sub(&m2.sub(&m1).rem(&self.p))
        };
        let h = crt.p.mul_redc(&crt.q_inv_mont, &diff);
        m2.add(&h.mul(&self.q))
    }

    /// Raw private operation on the pre-Montgomery schoolbook path
    /// (same CRT structure, full division per exponent bit). The E13
    /// and bench baseline.
    pub fn raw_private_schoolbook(&self, c: &Ubig) -> Ubig {
        let m1 = c.rem(&self.p).modpow_schoolbook(&self.d_p, &self.p);
        let m2 = c.rem(&self.q).modpow_schoolbook(&self.d_q, &self.q);
        let diff = if m1 >= m2 { m1.sub(&m2) } else { self.p.sub(&m2.sub(&m1).rem(&self.p)) };
        let h = self.q_inv.mul(&diff.rem(&self.p)).rem(&self.p);
        m2.add(&h.mul(&self.q))
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let em = emsa_pkcs1_v15(message, self.public.k)
            .expect("modulus too small for SHA-256 DigestInfo");
        let m = Ubig::from_bytes_be(&em);
        let s = self.raw_private(&m);
        RsaSignature(s.to_bytes_be_padded(self.public.k))
    }

    /// [`RsaPrivateKey::sign`] on the schoolbook path (the E13/bench
    /// baseline; signatures are always byte-identical to `sign`).
    pub fn sign_schoolbook(&self, message: &[u8]) -> RsaSignature {
        let em = emsa_pkcs1_v15(message, self.public.k)
            .expect("modulus too small for SHA-256 DigestInfo");
        let m = Ubig::from_bytes_be(&em);
        let s = self.raw_private_schoolbook(&m);
        RsaSignature(s.to_bytes_be_padded(self.public.k))
    }

    /// Exposes `d` for tests that cross-check CRT against the direct
    /// computation.
    #[cfg(test)]
    pub(crate) fn d(&self) -> &Ubig {
        &self.d
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "RsaPrivateKey(n={} bits)", self.public.modulus_bits())
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `k` bytes:
/// `0x00 0x01 FF..FF 0x00 DigestInfo || H(m)`.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let h = sha256(message);
    let t_len = SHA256_DIGEST_INFO.len() + h.as_bytes().len();
    if k < t_len + 11 {
        return Err(CryptoError::KeyTooSmall);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(h.as_bytes());
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key(bits: usize) -> RsaPrivateKey {
        let mut rng = HmacDrbg::from_u64_labeled(42, &format!("rsa-test-{bits}"));
        RsaPrivateKey::generate(bits, &mut rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = test_key(512);
        let sig = key.sign(b"the shortest route");
        assert!(key.public().verify(b"the shortest route", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key(512);
        let sig = key.sign(b"message one");
        assert!(key.public().verify(b"message two", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key(512);
        let mut sig = key.sign(b"message");
        sig.0[10] ^= 0x01;
        assert!(key.public().verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key1 = test_key(512);
        let mut rng = HmacDrbg::from_u64_labeled(43, "rsa-other");
        let key2 = RsaPrivateKey::generate(512, &mut rng);
        let sig = key1.sign(b"message");
        assert!(key2.public().verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let key = test_key(512);
        let sig = key.sign(b"m");
        let short = RsaSignature(sig.0[1..].to_vec());
        assert!(key.public().verify(b"m", &short).is_err());
    }

    #[test]
    fn verify_rejects_oversize_value() {
        let key = test_key(512);
        // s >= n must be rejected outright.
        let too_big = RsaSignature(key.public().n().to_bytes_be_padded(key.public().modulus_len()));
        assert!(key.public().verify(b"m", &too_big).is_err());
    }

    #[test]
    fn montgomery_and_schoolbook_paths_agree() {
        let key = test_key(512);
        let msg = b"equivalence";
        assert_eq!(key.sign(msg).0, key.sign_schoolbook(msg).0);
        let sig = key.sign(msg);
        assert!(key.public().verify(msg, &sig).is_ok());
        assert!(key.public().verify_schoolbook(msg, &sig).is_ok());
        let mut bad = sig.clone();
        bad.0[9] ^= 1;
        assert!(key.public().verify(msg, &bad).is_err());
        assert!(key.public().verify_schoolbook(msg, &bad).is_err());
        let mut rng = HmacDrbg::new(b"raw-paths");
        for _ in 0..3 {
            let m = Ubig::random_below(key.public().n(), &mut rng);
            assert_eq!(key.public().raw_public(&m), key.public().raw_public_schoolbook(&m));
            assert_eq!(key.raw_private(&m), key.raw_private_schoolbook(&m));
        }
    }

    #[test]
    fn equality_ignores_montgomery_cache() {
        // A key that has verified something (cache built) must still
        // equal a fresh copy of itself.
        let key = test_key(512);
        let warm = key.public().clone();
        let sig = key.sign(b"m");
        assert!(warm.verify(b"m", &sig).is_ok());
        assert_eq!(&warm, key.public());
    }

    #[test]
    fn crt_matches_direct_exponentiation() {
        let key = test_key(256);
        let mut rng = HmacDrbg::new(b"crt");
        for _ in 0..5 {
            let m = Ubig::random_below(key.public().n(), &mut rng);
            let direct = m.modpow(key.d(), key.public().n());
            assert_eq!(key.raw_private(&m), direct);
        }
    }

    #[test]
    fn raw_ops_are_inverse() {
        let key = test_key(256);
        let mut rng = HmacDrbg::new(b"inv");
        for _ in 0..5 {
            let m = Ubig::random_below(key.public().n(), &mut rng);
            assert_eq!(key.raw_private(&key.public().raw_public(&m)), m);
            assert_eq!(key.public().raw_public(&key.raw_private(&m)), m);
        }
    }

    #[test]
    fn signature_length_is_modulus_length() {
        let key = test_key(512);
        assert_eq!(key.sign(b"x").0.len(), 64);
    }

    #[test]
    fn fingerprints_differ_across_keys() {
        let key1 = test_key(256);
        let mut rng = HmacDrbg::from_u64_labeled(99, "fp");
        let key2 = RsaPrivateKey::generate(256, &mut rng);
        assert_ne!(key1.public().fingerprint(), key2.public().fingerprint());
    }

    #[test]
    fn deterministic_keygen() {
        let mut a = HmacDrbg::from_u64_labeled(7, "same");
        let mut b = HmacDrbg::from_u64_labeled(7, "same");
        let k1 = RsaPrivateKey::generate(256, &mut a);
        let k2 = RsaPrivateKey::generate(256, &mut b);
        assert_eq!(k1.public(), k2.public());
    }

    /// Keys, signatures and the DRBG position after key generation are
    /// outputs: e1–e18 and every checkpoint carry them. The digest was
    /// computed on the commit before the const-generic Montgomery
    /// engine and the batched trial division; faster arithmetic must
    /// not move a byte of it.
    #[test]
    fn keys_and_signatures_are_pinned() {
        let mut transcript = Vec::new();
        for bits in [512usize, 1024] {
            let mut rng = HmacDrbg::from_u64_labeled(17, &format!("rsa-kat-{bits}"));
            for i in 0..4 {
                let key = RsaPrivateKey::generate(bits, &mut rng);
                let msg = format!("kat message {i}");
                let sig = key.sign(msg.as_bytes());
                assert!(key.public().verify(msg.as_bytes(), &sig).is_ok());
                transcript.extend_from_slice(&key.public().n().to_bytes_be());
                transcript.extend_from_slice(&sig.0);
            }
            transcript.extend_from_slice(&rng.u64().to_be_bytes());
        }
        let digest: String =
            sha256(&transcript).as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(digest, "2339839241c39b56d1fcd6a2eeb10cba4fe3747ce15ed635d75da1c247439227");
    }

    #[test]
    fn emsa_structure() {
        let em = emsa_pkcs1_v15(b"hello", 128).unwrap();
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert_eq!(em[128 - 51 - 1], 0x00); // separator before the 51-byte T
        assert!(em[2..128 - 52].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn emsa_rejects_tiny_modulus() {
        assert!(emsa_pkcs1_v15(b"hello", 32).is_err());
    }
}
