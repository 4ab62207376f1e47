//! Prefix-free bitstring labels for MHT leaves.
//!
//! §3.6: "each network can assign a unique bitstring to each of its
//! rules, as well as to any output produced by these rules … the
//! resulting bitstrings are prefix-free, i.e., no valid bitstring is a
//! prefix of another valid bitstring. A simple way to ensure both is to
//! encode the string `rule(x)` for each rule x and `var(v)` for each
//! variable v, although there are more efficient representations."
//!
//! We use one of those more efficient representations: a fixed one-byte
//! kind tag followed by a fixed-width or length-prefixed body. Two valid
//! labels of the same byte length can never be proper prefixes of each
//! other, labels of different kinds differ in their first byte, and
//! variable-length custom labels carry a length prefix — so the valid
//! label set is prefix-free, exactly as the construction requires.

use pvr_crypto::encoding::{Reader, Wire, WireError};

/// A bit string (MSB-first within each byte), the path of an MHT leaf.
///
/// Ordered by its padded bytes, then its length: among strings that
/// share their first `n` bits and are longer than `n`, every one whose
/// bit `n` is 0 sorts before every one whose bit `n` is 1 — the order
/// [`crate::SparseMht`] builds in.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitString {
    bytes: Vec<u8>,
    len_bits: usize,
}

impl BitString {
    /// Builds from whole bytes.
    pub fn from_bytes(bytes: &[u8]) -> BitString {
        BitString { bytes: bytes.to_vec(), len_bits: bytes.len() * 8 }
    }

    /// The empty bitstring (the MHT root path).
    pub fn empty() -> BitString {
        BitString { bytes: Vec::new(), len_bits: 0 }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// True for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Bit `i`, MSB-first.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len_bits, "bit index {i} out of range ({})", self.len_bits);
        (self.bytes[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// The prefix consisting of the first `n` bits.
    pub fn prefix(&self, n: usize) -> BitString {
        assert!(n <= self.len_bits);
        let nbytes = n.div_ceil(8);
        let mut bytes = self.bytes[..nbytes].to_vec();
        // Zero the unused low bits of the final byte so equal prefixes
        // compare equal regardless of origin.
        if n % 8 != 0 {
            let mask = 0xffu8 << (8 - n % 8);
            if let Some(last) = bytes.last_mut() {
                *last &= mask;
            }
        }
        BitString { bytes, len_bits: n }
    }

    /// Appends a single bit.
    pub fn push(&self, bit: bool) -> BitString {
        let mut out = self.prefix(self.len_bits);
        let i = out.len_bits;
        if i / 8 >= out.bytes.len() {
            out.bytes.push(0);
        }
        if bit {
            out.bytes[i / 8] |= 1 << (7 - i % 8);
        }
        out.len_bits = i + 1;
        out
    }

    /// True if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        if self.len_bits > other.len_bits {
            return false;
        }
        *self == other.prefix(self.len_bits)
    }

    /// Canonical bytes for hashing: bit length then padded bytes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let (len, bytes) = self.canonical_parts();
        [len.as_slice(), bytes].concat()
    }

    /// The two parts of [`Self::canonical_bytes`], for hashing without
    /// building the concatenation.
    pub(crate) fn canonical_parts(&self) -> ([u8; 4], &[u8]) {
        ((self.len_bits as u32).to_be_bytes(), &self.bytes)
    }

    /// Writes into `out` the canonical bytes of the sibling subtree at
    /// `depth` — of `self.prefix(depth).push(!self.bit(depth))` —
    /// without building that string.
    pub(crate) fn sibling_canonical_into(&self, depth: usize, out: &mut Vec<u8>) {
        let flipped = !self.bit(depth);
        out.clear();
        out.extend_from_slice(&(depth as u32 + 1).to_be_bytes());
        out.extend_from_slice(&self.bytes[..=depth / 8]);
        let mask = 1u8 << (7 - depth % 8);
        let last = out.last_mut().expect("at least one path byte");
        // Keep the bits above `depth`, set bit `depth`, zero the rest.
        *last &= !(mask | (mask - 1));
        if flipped {
            *last |= mask;
        }
    }
}

impl std::fmt::Debug for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitString(")?;
        for i in 0..self.len_bits.min(64) {
            write!(f, "{}", self.bit(i) as u8)?;
        }
        if self.len_bits > 64 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

/// A prefix-free MHT leaf label, as the paper's `rule(x)` / `var(v)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Label {
    /// A route-flow-graph variable vertex.
    Var(u32),
    /// A route-flow-graph operator (rule) vertex.
    Rule(u32),
    /// A commitment slot for protocol metadata (e.g. the bit vector
    /// `b_1..b_k` of the minimum operator, §3.3), indexed.
    Slot(u32, u32),
    /// Free-form label (length-prefixed, still prefix-free).
    Custom(Vec<u8>),
}

impl Label {
    const TAG_VAR: u8 = 0x01;
    const TAG_RULE: u8 = 0x02;
    const TAG_SLOT: u8 = 0x03;
    const TAG_CUSTOM: u8 = 0x04;

    /// Longest [`Label::Custom`] body: its bitstring carries the length
    /// as a `u16`, and a longer body would wrap it — `Custom(vec![0;
    /// 65536])` would encode length 0 and have `Custom(vec![])` as a
    /// prefix. Such a label has no bitstring: it does not decode,
    /// [`crate::SparseMht::build`] refuses it and a proof carrying it
    /// does not verify.
    pub const MAX_CUSTOM_LEN: usize = u16::MAX as usize;

    /// Encodes to the prefix-free bitstring that addresses the MHT leaf.
    ///
    /// # Panics
    /// On a `Custom` body over [`Self::MAX_CUSTOM_LEN`]; where the label
    /// comes from outside, use [`Self::try_to_bits`].
    pub fn to_bits(&self) -> BitString {
        self.try_to_bits().expect("custom label body over Label::MAX_CUSTOM_LEN")
    }

    /// [`Self::to_bits`], or `None` for a label that has no bitstring.
    pub fn try_to_bits(&self) -> Option<BitString> {
        let mut bytes = Vec::with_capacity(9);
        match self {
            Label::Var(v) => {
                bytes.push(Self::TAG_VAR);
                bytes.extend_from_slice(&v.to_be_bytes());
            }
            Label::Rule(r) => {
                bytes.push(Self::TAG_RULE);
                bytes.extend_from_slice(&r.to_be_bytes());
            }
            Label::Slot(group, idx) => {
                bytes.push(Self::TAG_SLOT);
                bytes.extend_from_slice(&group.to_be_bytes());
                bytes.extend_from_slice(&idx.to_be_bytes());
            }
            Label::Custom(data) => {
                bytes.push(Self::TAG_CUSTOM);
                bytes.extend_from_slice(&u16::try_from(data.len()).ok()?.to_be_bytes());
                bytes.extend_from_slice(data);
            }
        }
        let len_bits = bytes.len() * 8;
        Some(BitString { bytes, len_bits })
    }
}

/// Hand-written: decode rejects a `Custom` body over
/// [`Label::MAX_CUSTOM_LEN`], so every label that arrives has a
/// bitstring. The bytes are those of the derived enum codec (one tag
/// byte, then the fields).
impl Wire for Label {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Label::Var(v) => {
                buf.push(Self::TAG_VAR);
                v.encode(buf);
            }
            Label::Rule(r) => {
                buf.push(Self::TAG_RULE);
                r.encode(buf);
            }
            Label::Slot(group, idx) => {
                buf.push(Self::TAG_SLOT);
                group.encode(buf);
                idx.encode(buf);
            }
            Label::Custom(data) => {
                buf.push(Self::TAG_CUSTOM);
                data.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            Self::TAG_VAR => Ok(Label::Var(u32::decode(r)?)),
            Self::TAG_RULE => Ok(Label::Rule(u32::decode(r)?)),
            Self::TAG_SLOT => Ok(Label::Slot(u32::decode(r)?, u32::decode(r)?)),
            Self::TAG_CUSTOM => {
                let data = Vec::<u8>::decode(r)?;
                if data.len() > Self::MAX_CUSTOM_LEN {
                    return Err(WireError::Invalid("custom label over 65535 bytes"));
                }
                Ok(Label::Custom(data))
            }
            _ => Err(WireError::Invalid("Label tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Label::Var(_) | Label::Rule(_) => 4,
            Label::Slot(..) => 8,
            Label::Custom(data) => data.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_access_msb_first() {
        let b = BitString::from_bytes(&[0b1010_0000]);
        assert!(b.bit(0));
        assert!(!b.bit(1));
        assert!(b.bit(2));
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn push_and_prefix() {
        let mut b = BitString::empty();
        for bit in [true, false, true, true] {
            b = b.push(bit);
        }
        assert_eq!(b.len(), 4);
        assert!(b.bit(0) && !b.bit(1) && b.bit(2) && b.bit(3));
        let p = b.prefix(2);
        assert_eq!(p.len(), 2);
        assert!(p.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&p));
        assert!(BitString::empty().is_prefix_of(&b));
    }

    #[test]
    fn prefix_normalizes_trailing_bits() {
        // Prefixes of different strings that agree on the first n bits
        // must be equal as values (needed for HashMap keys).
        let a = BitString::from_bytes(&[0b1100_1111]);
        let b = BitString::from_bytes(&[0b1100_0000]);
        assert_eq!(a.prefix(4), b.prefix(4));
        assert_ne!(a.prefix(5), b.prefix(5));
    }

    #[test]
    fn labels_are_prefix_free() {
        let labels = vec![
            Label::Var(0),
            Label::Var(1),
            Label::Var(u32::MAX),
            Label::Rule(0),
            Label::Rule(1),
            Label::Slot(0, 0),
            Label::Slot(0, 1),
            Label::Slot(1, 0),
            Label::Custom(vec![]),
            Label::Custom(vec![1]),
            Label::Custom(vec![1, 2]),
            Label::Custom(vec![0x01, 0x00, 0x00, 0x00, 0x00]), // mimics Var(0) body
            Label::Custom(vec![0; 255]),
            Label::Custom(vec![0; 256]),
            Label::Custom(vec![0; Label::MAX_CUSTOM_LEN]),
        ];
        let bits: Vec<BitString> = labels.iter().map(Label::to_bits).collect();
        for (i, a) in bits.iter().enumerate() {
            for (j, b) in bits.iter().enumerate() {
                assert!(i == j || !a.is_prefix_of(b), "{:?} is a prefix of {:?}", a, b);
            }
        }
    }

    #[test]
    fn over_long_custom_label_has_no_bitstring() {
        // One byte more and the u16 length would wrap to 0, making
        // `Custom(vec![])` a prefix of it.
        // (`tests/wire.rs` has the decode side of the same bound.)
        let over = Label::Custom(vec![0; Label::MAX_CUSTOM_LEN + 1]);
        assert_eq!(over.try_to_bits(), None);
        let fits = Label::Custom(vec![0; Label::MAX_CUSTOM_LEN]);
        assert_eq!(fits.to_bits().len(), 8 * (3 + Label::MAX_CUSTOM_LEN));
    }

    #[test]
    fn sibling_canonical_bytes_match_the_built_string() {
        let path = Label::Slot(0x8001_00ff, 0x7f00_ff01).to_bits();
        let mut out = Vec::new();
        for depth in 0..path.len() {
            path.sibling_canonical_into(depth, &mut out);
            assert_eq!(out, path.prefix(depth).push(!path.bit(depth)).canonical_bytes(), "{depth}");
        }
    }

    #[test]
    fn canonical_bytes_distinguish_lengths() {
        let a = BitString::from_bytes(&[0]).prefix(3);
        let b = BitString::from_bytes(&[0]).prefix(4);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    proptest! {
        #[test]
        fn prop_distinct_labels_distinct_bits(a in any::<u32>(), b in any::<u32>()) {
            prop_assume!(a != b);
            prop_assert_ne!(Label::Var(a).to_bits(), Label::Var(b).to_bits());
            prop_assert_ne!(Label::Var(a).to_bits(), Label::Rule(a).to_bits());
        }

        #[test]
        fn prop_prefix_of_self(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
            let b = BitString::from_bytes(&bytes);
            prop_assert!(b.is_prefix_of(&b));
            prop_assert!(b.prefix(b.len() / 2).is_prefix_of(&b));
        }

        #[test]
        fn prop_push_bit_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..40)) {
            let mut b = BitString::empty();
            for &bit in &bits {
                b = b.push(bit);
            }
            prop_assert_eq!(b.len(), bits.len());
            for (i, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(b.bit(i), bit);
            }
        }
    }
}
