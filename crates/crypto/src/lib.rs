//! # pvr-crypto — cryptographic substrate for Private and Verifiable Routing
//!
//! Every cryptographic mechanism the PVR paper relies on, implemented
//! from scratch (the workspace's offline crate set contains no crypto
//! crates):
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), the paper's commitment/MHT hash (§3.8);
//! * [`hmac`] — HMAC-SHA-256, used for keyed derivation;
//! * [`drbg`] — HMAC-DRBG (SP 800-90A): all randomness in the workspace is
//!   deterministic from a seed, so whole experiments replay bit-for-bit;
//! * [`bignum`] / [`montgomery`] / [`prime`] / [`rsa`] — arbitrary-precision
//!   arithmetic, Montgomery REDC with windowed exponentiation (the fast
//!   path under every RSA operation, measured in E13), Miller–Rabin, and
//!   RSA with PKCS#1 v1.5 signatures (the paper budgets "about two
//!   milliseconds" per RSA-1024 signature, reproduced in E3);
//! * [`mod@commit`] — blinded hash commitments `H(b ‖ p)` (§3.2, footnote 2);
//! * [`ring`] — Rivest–Shamir–Tauman ring signatures for the link-state
//!   existential variant (§3.2, citing \[20\]);
//! * [`keys`] — principal identities and the out-of-band PKI;
//! * [`encoding`] — the canonical wire codec everything is hashed/signed
//!   over.
//!
//! ## Security caveat
//!
//! This is **research-simulator cryptography**: correct, tested against
//! standard vectors where they exist, but variable-time and unhardened.
//! It must never be used outside experimentation.

pub mod bignum;
pub mod commit;
pub mod drbg;
pub mod encoding;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod montgomery;
pub mod prime;
pub mod ring;
pub mod rsa;
pub mod sha256;

pub use bignum::Ubig;
pub use commit::{commit, commit_with, verify as verify_commitment, Blinding, Commitment, Opening};
pub use drbg::HmacDrbg;
pub use encoding::{decode_exact, Reader, Wire, WireError};
pub use error::CryptoError;
pub use hmac::{hmac_sha256, HmacKey};
pub use keys::{Identity, KeyStore, PrincipalId};
pub use montgomery::Montgomery;
pub use ring::{ring_sign, ring_verify, RingSignature};
pub use rsa::{RsaPrivateKey, RsaPublicKey, RsaSignature};
pub use sha256::{sha256, sha256_concat, Digest, Sha256};
