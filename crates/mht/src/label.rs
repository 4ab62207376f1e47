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

/// A bit string (MSB-first within each byte), the path of an MHT leaf.
#[derive(Clone, PartialEq, Eq, Hash)]
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
        let mut out = Vec::with_capacity(4 + self.bytes.len());
        out.extend_from_slice(&(self.len_bits as u32).to_be_bytes());
        out.extend_from_slice(&self.bytes);
        out
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

    /// Encodes to the prefix-free bitstring that addresses the MHT leaf.
    pub fn to_bits(&self) -> BitString {
        let mut bytes = Vec::new();
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
                bytes.extend_from_slice(&(data.len() as u16).to_be_bytes());
                bytes.extend_from_slice(data);
            }
        }
        BitString::from_bytes(&bytes)
    }
}

pvr_crypto::wire_enum!(Label {
    Self::TAG_VAR => Var(v),
    Self::TAG_RULE => Rule(r),
    Self::TAG_SLOT => Slot(group, idx),
    Self::TAG_CUSTOM => Custom(data),
});

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
        ];
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (ba, bb) = (a.to_bits(), b.to_bits());
                assert!(!ba.is_prefix_of(&bb), "{a:?} is a prefix of {b:?}");
            }
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
