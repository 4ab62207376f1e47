//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The offline crate set available to this workspace contains no hash
//! implementations, and every PVR mechanism in the paper (commitments,
//! Merkle hash trees, signatures) is built on "a cryptographic hash
//! function (such as SHA-256)" (§3.8), so we implement the full standard
//! here. The implementation is verified against the NIST FIPS 180-4
//! example vectors in the unit tests below.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 input block in bytes.
pub const BLOCK_LEN: usize = 64;

/// A 32-byte SHA-256 digest.
///
/// Wraps the raw bytes so digests are a distinct type from arbitrary
/// byte strings throughout the workspace; ordering and hashing derive
/// from the byte content, which makes digests usable as map keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; DIGEST_LEN]);

crate::wire_struct!(Digest { 0 });

impl Digest {
    /// The all-zero digest, used as a sentinel in sparse structures.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parses a digest from a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.as_bytes();
        if s.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for i in 0..DIGEST_LEN {
            let hi = (s[2 * i] as char).to_digit(16)?;
            let lo = (s[2 * i + 1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// XORs two digests byte-wise (used by the Feistel round function in
    /// the ring-signature combining cipher).
    pub fn xor(&self, other: &Digest) -> Digest {
        let mut out = [0u8; DIGEST_LEN];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Digest(out)
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..16])
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// SHA-256 round constants: first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use pvr_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far (excluding buffered).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the initial state.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, len: 0, buf: [0u8; BLOCK_LEN], buf_len: 0 }
    }

    /// The chaining value left after absorbing exactly `block`.
    pub(crate) fn after_block(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        let mut h = Sha256::new();
        h.compress(block);
        h.state
    }

    /// A hasher that has absorbed one block, which left `chaining`.
    pub(crate) fn resume(chaining: [u32; 8]) -> Sha256 {
        Sha256 { state: chaining, len: BLOCK_LEN as u64, buf: [0u8; BLOCK_LEN], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let mut data = data;
        // Fill any partial block first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.len += BLOCK_LEN as u64;
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            self.len += BLOCK_LEN as u64;
            data = rest;
        }
        // Buffer the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
        self
    }

    /// Completes the hash, consuming the padded final block.
    pub fn finalize(mut self) -> Digest {
        let total_bits = (self.len + self.buf_len as u64) * 8;
        // Append 0x80, then zeros, then the 64-bit big-endian length.
        let mut pad = [0u8; BLOCK_LEN * 2];
        let mut n = 0;
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        n += self.buf_len;
        pad[n] = 0x80;
        n += 1;
        let rem = if n % BLOCK_LEN <= BLOCK_LEN - 8 {
            BLOCK_LEN - 8 - (n % BLOCK_LEN)
        } else {
            2 * BLOCK_LEN - 8 - (n % BLOCK_LEN)
        };
        n += rem;
        pad[n..n + 8].copy_from_slice(&total_bits.to_be_bytes());
        n += 8;
        debug_assert!(n % BLOCK_LEN == 0);
        for chunk in pad[..n].chunks_exact(BLOCK_LEN) {
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(chunk);
            self.compress(&b);
        }
        digest_of(&self.state)
    }

    /// The SHA-256 compression function over a single 64-byte block.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// The digest a chaining value reads as: its words, big-endian.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// One-shot SHA-256 of a byte string.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several byte strings.
///
/// Equivalent to hashing the concatenation, without allocating it.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// SHA-256 of a tag block and one more block, with the final padding
/// block dropped: the chaining value the tag, zero-padded to one
/// block, leaves, and from it one compression per input. An interior
/// node of a Merkle tree hashes its two children this way in one
/// compression, where `SHA-256(tag ‖ left ‖ right)` takes two.
///
/// Every input is exactly one block (two digests), so the message
/// length that SHA-256's padding appends would be the same constant
/// each time: dropping it leaves the hash collision resistant over
/// these inputs, assuming the compression function is. Only hash
/// fixed-length inputs with it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Midstate([u32; 8]);

impl Midstate {
    /// The chaining value after `tag` followed by zeros to one block.
    ///
    /// # Panics
    ///
    /// If `tag` is longer than a block.
    pub fn new(tag: &[u8]) -> Midstate {
        let mut block = [0u8; BLOCK_LEN];
        block[..tag.len()].copy_from_slice(tag);
        Midstate(Sha256::after_block(&block))
    }

    /// The chaining value whose words are `bytes`, big-endian: a secret
    /// key for [`compress`](Self::compress) (`drbg::CounterStream`).
    pub fn from_bytes(bytes: &[u8; DIGEST_LEN]) -> Midstate {
        let word =
            |i: usize| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        Midstate(std::array::from_fn(word))
    }

    /// The chaining value's words, big-endian ([`from_bytes`](Self::from_bytes)'s
    /// inverse).
    pub fn to_bytes(&self) -> [u8; DIGEST_LEN] {
        digest_of(&self.0).0
    }

    /// One compression of `block` from this chaining value.
    pub fn compress(&self, block: &[u8; BLOCK_LEN]) -> Digest {
        let mut h = Sha256::resume(self.0);
        h.compress(block);
        digest_of(&h.state)
    }

    /// One compression of `left ‖ right` from this chaining value.
    pub fn compress_pair(&self, left: &Digest, right: &Digest) -> Digest {
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(&left.0);
        block[DIGEST_LEN..].copy_from_slice(&right.0);
        self.compress(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 example vectors plus RFC 6234 test cases.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = sha256(&data);
        // Feed in irregular chunk sizes to exercise the buffering logic.
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn concat_equals_contiguous() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }

    #[test]
    fn xor_involution() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_eq!(a.xor(&b).xor(&b), a);
        assert_eq!(a.xor(&a), Digest::ZERO);
    }

    /// `Midstate` against the streaming hasher's chaining value after
    /// the same two blocks, and against a vector from an independent
    /// implementation of the compression function (the one `pvr-mht`
    /// pins as its interior-node hash).
    #[test]
    fn midstate_pair_is_one_compression_after_the_tag_block() {
        let (left, right) = (sha256(b"left"), sha256(b"right"));
        let mut tag_block = [0u8; BLOCK_LEN];
        tag_block[..12].copy_from_slice(b"pvr.seq.node");
        let mut streamed = Sha256::new();
        streamed.update(&tag_block).update(&left.0).update(&right.0);
        assert_eq!((streamed.len, streamed.buf_len), (2 * BLOCK_LEN as u64, 0));
        let pair = Midstate::new(b"pvr.seq.node").compress_pair(&left, &right);
        assert_eq!(pair, digest_of(&streamed.state));
        assert_eq!(
            pair.to_hex(),
            "ffaea9dd3fd8221d448e9ed8fe1d8f9bc929860a2f7bd0d2c7b8bacfce0311c4"
        );
        assert_ne!(pair, sha256_concat(&[&tag_block, &left.0, &right.0]), "no padding block");
        assert_ne!(pair, Midstate::new(b"pvr.seq.leaf").compress_pair(&left, &right));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56-byte padding boundary must all differ
        // and be stable.
        let known = [
            (55usize, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56usize, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
        ];
        for (len, hex) in known {
            let data = vec![b'a'; len];
            assert_eq!(sha256(&data).to_hex(), hex, "len {len}");
        }
    }
}
