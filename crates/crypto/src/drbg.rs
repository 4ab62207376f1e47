//! HMAC-DRBG (NIST SP 800-90A) — deterministic random bit generator.
//!
//! Every source of randomness in the workspace (key generation,
//! commitment blinding, simulator jitter, workload generation) flows
//! through this DRBG so that entire end-to-end experiments are
//! reproducible from a single `u64` seed. The generator also implements
//! a local [`RngCore`] trait (a signature-compatible subset of
//! `rand::RngCore`, kept in-tree because this workspace builds without
//! registry access) so it can drive generic samplers where convenient.

use crate::encoding::{Reader, Wire, WireError};
use crate::hmac::HmacKey;
use crate::sha256::DIGEST_LEN;

/// HMAC-SHA-256 deterministic random bit generator.
///
/// State is the standard `(K, V)` pair from SP 800-90A §10.1.2. Reseeding
/// and per-request additional input are supported via [`HmacDrbg::reseed`].
#[derive(Clone)]
pub struct HmacDrbg {
    key: [u8; DIGEST_LEN],
    /// `key` with its pad blocks absorbed; re-derived wherever `key`
    /// changes, so a MAC under the current key costs two compressions.
    mac: HmacKey,
    value: [u8; DIGEST_LEN],
    /// Number of `generate` calls since instantiation (diagnostics only;
    /// we do not enforce SP 800-90A's reseed interval in a simulator).
    reseed_counter: u64,
}

impl HmacDrbg {
    fn with_state(key: [u8; DIGEST_LEN], value: [u8; DIGEST_LEN], reseed_counter: u64) -> HmacDrbg {
        HmacDrbg { key, mac: HmacKey::new(&key), value, reseed_counter }
    }

    /// Instantiates the DRBG from seed material.
    pub fn new(seed: &[u8]) -> HmacDrbg {
        let mut drbg = HmacDrbg::with_state([0u8; DIGEST_LEN], [1u8; DIGEST_LEN], 0);
        drbg.update(Some(seed));
        drbg
    }

    /// Convenience constructor: seeds from a `u64` plus a domain-separation
    /// label, so different subsystems derive independent streams from the
    /// same experiment seed.
    pub fn from_u64_labeled(seed: u64, label: &str) -> HmacDrbg {
        let mut material = Vec::with_capacity(8 + label.len());
        material.extend_from_slice(&seed.to_be_bytes());
        material.extend_from_slice(label.as_bytes());
        HmacDrbg::new(&material)
    }

    /// Mixes additional entropy/input into the state.
    pub fn reseed(&mut self, input: &[u8]) {
        self.update(Some(input));
    }

    /// The SP 800-90A `HMAC_DRBG_Update` function.
    fn update(&mut self, provided: Option<&[u8]>) {
        self.rekey(0x00, provided.unwrap_or(&[]));
        if let Some(p) = provided {
            self.rekey(0x01, p);
        }
    }

    /// One round of the update: `K = HMAC(K, V ‖ round ‖ provided)`,
    /// then `V = HMAC(K, V)` under the new key.
    fn rekey(&mut self, round: u8, provided: &[u8]) {
        self.key = self.mac.mac(&[&self.value, &[round], provided]).0;
        self.mac = HmacKey::new(&self.key);
        self.value = self.mac.mac(&[&self.value]).0;
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn generate(&mut self, out: &mut [u8]) {
        let mut offset = 0;
        while offset < out.len() {
            self.value = self.mac.mac(&[&self.value]).0;
            let take = (out.len() - offset).min(DIGEST_LEN);
            out[offset..offset + take].copy_from_slice(&self.value[..take]);
            offset += take;
        }
        self.update(None);
        self.reseed_counter += 1;
    }

    /// Returns a fresh vector of `len` pseudorandom bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.generate(&mut v);
        v
    }

    /// Uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.generate(&mut b);
        u64::from_be_bytes(b)
    }

    /// Uniform `u32`.
    pub fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.generate(&mut b);
        u32::from_be_bytes(b)
    }

    /// Uniform value in `[0, bound)` via rejection sampling (no modulo
    /// bias). `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection zone: multiples of bound that fit in u64.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53-bit uniform in [0,1).
        let x = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        x < p
    }

    /// Chooses a uniformly random element index for a slice of length `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Number of `generate` calls so far.
    pub fn generate_count(&self) -> u64 {
        self.reseed_counter
    }

    /// Serializes the full generator state — `K ‖ V ‖ reseed_counter`
    /// (big-endian) — so a checkpointed simulation can resume its random
    /// stream exactly where it stopped. The state is *not* secret-safe
    /// to publish (it determines all future output); checkpoint files
    /// are trusted local artifacts.
    pub fn state_bytes(&self) -> [u8; Self::STATE_LEN] {
        let mut out = [0u8; Self::STATE_LEN];
        out[..DIGEST_LEN].copy_from_slice(&self.key);
        out[DIGEST_LEN..2 * DIGEST_LEN].copy_from_slice(&self.value);
        out[2 * DIGEST_LEN..].copy_from_slice(&self.reseed_counter.to_be_bytes());
        out
    }

    /// Rebuilds a generator from [`HmacDrbg::state_bytes`] output. The
    /// restored generator continues the original's stream bit-for-bit.
    pub fn from_state_bytes(state: &[u8; Self::STATE_LEN]) -> HmacDrbg {
        let mut key = [0u8; DIGEST_LEN];
        let mut value = [0u8; DIGEST_LEN];
        key.copy_from_slice(&state[..DIGEST_LEN]);
        value.copy_from_slice(&state[DIGEST_LEN..2 * DIGEST_LEN]);
        let mut ctr = [0u8; 8];
        ctr.copy_from_slice(&state[2 * DIGEST_LEN..]);
        HmacDrbg::with_state(key, value, u64::from_be_bytes(ctr))
    }

    /// Byte length of [`HmacDrbg::state_bytes`].
    pub const STATE_LEN: usize = 2 * DIGEST_LEN + 8;
}

/// Hand-written: the state travels as [`HmacDrbg::state_bytes`] (key ‖
/// value ‖ counter, no count); the keyed-MAC midstate is re-derived on
/// decode, never stored.
impl Wire for HmacDrbg {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.state_bytes().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HmacDrbg::from_state_bytes(&Wire::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        Self::STATE_LEN
    }
}

/// Signature-compatible subset of `rand::RngCore`, defined locally so
/// the workspace builds without the external `rand` crate. Swapping to
/// the real trait is a matter of deleting this definition and importing
/// `rand::RngCore` instead.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl RngCore for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        self.u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.generate(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed-a");
        let mut b = HmacDrbg::new(b"seed-b");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn labels_domain_separate() {
        let mut a = HmacDrbg::from_u64_labeled(7, "crypto");
        let mut b = HmacDrbg::from_u64_labeled(7, "netsim");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        b.reseed(b"extra");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn below_respects_bound() {
        let mut d = HmacDrbg::new(b"bound");
        for _ in 0..1000 {
            assert!(d.below(7) < 7);
        }
        // bound 1 always yields 0
        assert_eq!(d.below(1), 0);
    }

    #[test]
    fn range_inclusive() {
        let mut d = HmacDrbg::new(b"range");
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let x = d.range(3, 5);
            assert!((3..=5).contains(&x));
            seen_lo |= x == 3;
            seen_hi |= x == 5;
        }
        assert!(seen_lo && seen_hi, "range endpoints should both occur");
    }

    #[test]
    fn chance_extremes() {
        let mut d = HmacDrbg::new(b"chance");
        for _ in 0..100 {
            assert!(!d.chance(0.0));
            assert!(d.chance(1.0));
        }
    }

    #[test]
    fn chance_roughly_uniform() {
        let mut d = HmacDrbg::new(b"uniform");
        let hits = (0..10_000).filter(|_| d.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} hits for p=0.25");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut d = HmacDrbg::new(b"shuffle");
        let mut v: Vec<u32> = (0..50).collect();
        d.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn rng_core_integration() {
        use super::RngCore;
        let mut d = HmacDrbg::new(b"rngcore");
        let mut buf = [0u8; 16];
        d.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 16]);
        let _ = d.next_u32();
        let _ = d.next_u64();
    }

    #[test]
    fn state_round_trip_continues_stream() {
        let mut a = HmacDrbg::from_u64_labeled(42, "ckpt");
        let _ = a.bytes(100); // advance the stream
        let saved = a.state_bytes();
        let mut b = HmacDrbg::from_state_bytes(&saved);
        assert_eq!(a.generate_count(), b.generate_count());
        assert_eq!(a.bytes(64), b.bytes(64), "restored DRBG must continue identically");
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn state_bytes_capture_counter() {
        let mut a = HmacDrbg::new(b"ctr");
        let _ = a.u64();
        let _ = a.u64();
        let b = HmacDrbg::from_state_bytes(&a.state_bytes());
        assert_eq!(b.generate_count(), 2);
    }

    /// The whole output stream, across every entry point, pinned to the
    /// value the generator produced when each HMAC was computed from
    /// scratch (four compressions, no retained key state). Operations
    /// are chosen by an LCG so the schedule does not depend on the
    /// stream under test.
    #[test]
    fn mixed_transcript_is_pinned() {
        use crate::sha256::Sha256;
        // Lengths on both sides of one and two output blocks.
        const LENS: [usize; 10] = [0, 1, 8, 31, 32, 33, 63, 64, 65, 200];
        let mut transcript = Sha256::new();
        let mut d = HmacDrbg::new(b"transcript");
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..2000u64 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = lcg >> 33;
            let arg = (pick / 8) as usize;
            match pick % 8 {
                0 | 1 => {
                    transcript.update(&d.bytes(LENS[arg % LENS.len()]));
                }
                2 | 3 => {
                    transcript.update(&d.u64().to_be_bytes());
                }
                4 => {
                    transcript.update(&d.below(1 + arg as u64 % 1000).to_be_bytes());
                }
                5 => d.reseed(&lcg.to_be_bytes().repeat(12)[..LENS[arg % LENS.len()] % 90]),
                6 => {
                    let state = d.state_bytes();
                    transcript.update(&state);
                    d = HmacDrbg::from_state_bytes(&state);
                }
                _ if arg % 16 == 0 => d = HmacDrbg::from_u64_labeled(i, "transcript"),
                _ => {
                    transcript.update(&d.u32().to_be_bytes());
                }
            }
        }
        transcript.update(&d.state_bytes());
        assert_eq!(
            transcript.finalize().to_hex(),
            "e6f10634eb6eb7b81cce4c0656f0457c4ca212c0d9337dc1104c5ab45d469e71"
        );
    }

    #[test]
    fn generate_spans_multiple_blocks() {
        let mut d = HmacDrbg::new(b"blocks");
        let long = d.bytes(1000);
        // No obvious repetition of the 32-byte block.
        assert_ne!(&long[0..32], &long[32..64]);
    }
}
