//! Core identifiers: AS numbers and IPv4 prefixes.

use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::keys::PrincipalId;

/// An Autonomous System number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// The principal id used for this AS's keys and signatures.
    pub fn principal(self) -> PrincipalId {
        self.0 as PrincipalId
    }
}

impl std::fmt::Debug for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

pvr_crypto::wire_struct!(Asn { 0 });

/// An IPv4 CIDR prefix.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    /// Network address with host bits zeroed (enforced by constructors).
    addr: u32,
    /// Prefix length, 0..=32.
    len: u8,
}

// `len` is a prefix length in bits, not a container length; an
// `is_empty` counterpart would be meaningless (see `is_default`).
#[allow(clippy::len_without_is_empty)]
impl Prefix {
    /// Creates a prefix, zeroing any host bits.
    pub fn new(addr: u32, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix { addr: addr & Self::mask(len), len }
    }

    /// Parses `"a.b.c.d/len"`.
    pub fn parse(s: &str) -> Option<Prefix> {
        let (ip, len) = s.split_once('/')?;
        let len: u8 = len.parse().ok()?;
        if len > 32 {
            return None;
        }
        let mut octets = [0u8; 4];
        let mut parts = ip.split('.');
        for o in &mut octets {
            *o = parts.next()?.parse().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(Prefix::new(u32::from_be_bytes(octets), len))
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the default route `0.0.0.0/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True if `self` covers `other` (is an equal-or-less-specific
    /// superset).
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// True if the address ranges overlap at all.
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }
}

impl std::fmt::Debug for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", o[0], o[1], o[2], o[3], self.len)
    }
}

/// Hand-written: decode rejects a length above 32 and zeroes host
/// bits, so only canonical prefixes exist in memory.
impl Wire for Prefix {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.addr.encode(buf);
        self.len.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let addr = u32::decode(r)?;
        let len = u8::decode(r)?;
        if len > 32 {
            return Err(WireError::Invalid("prefix length > 32"));
        }
        Ok(Prefix::new(addr, len))
    }
    fn encoded_len(&self) -> usize {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_display() {
        let p = Prefix::parse("10.1.2.0/24").unwrap();
        assert_eq!(p.to_string(), "10.1.2.0/24");
        assert_eq!(p.len(), 24);
        assert_eq!(Prefix::parse("0.0.0.0/0").unwrap().to_string(), "0.0.0.0/0");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "10.1.2.0", "10.1.2.0/33", "10.1.2/24", "10.1.2.3.4/8", "a.b.c.d/8"] {
            assert!(Prefix::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn host_bits_zeroed() {
        let p = Prefix::parse("10.1.2.255/24").unwrap();
        assert_eq!(p.to_string(), "10.1.2.0/24");
        assert_eq!(Prefix::new(u32::MAX, 0).addr(), 0);
    }

    #[test]
    fn covers_and_overlaps() {
        let p8 = Prefix::parse("10.0.0.0/8").unwrap();
        let p24 = Prefix::parse("10.1.2.0/24").unwrap();
        let other = Prefix::parse("192.168.0.0/16").unwrap();
        assert!(p8.covers(&p24));
        assert!(!p24.covers(&p8));
        assert!(p8.overlaps(&p24) && p24.overlaps(&p8));
        assert!(!p8.overlaps(&other));
        assert!(p8.covers(&p8));
        assert!(Prefix::parse("0.0.0.0/0").unwrap().covers(&other));
    }

    #[test]
    fn is_default() {
        assert!(Prefix::parse("0.0.0.0/0").unwrap().is_default());
        assert!(!Prefix::parse("10.0.0.0/8").unwrap().is_default());
    }

    #[test]
    fn wire_rejects_bad_length() {
        let mut bytes = Vec::new();
        0u32.encode(&mut bytes);
        40u8.encode(&mut bytes);
        assert!(pvr_crypto::decode_exact::<Prefix>(&bytes).is_err());
    }

    #[test]
    fn asn_principal_mapping() {
        assert_eq!(Asn(7018).principal(), 7018u64);
    }

    proptest! {
        #[test]
        fn prop_cover_transitive(addr in any::<u32>(), l1 in 0u8..=32, l2 in 0u8..=32, l3 in 0u8..=32) {
            let mut ls = [l1, l2, l3];
            ls.sort_unstable();
            let a = Prefix::new(addr, ls[0]);
            let b = Prefix::new(addr, ls[1]);
            let c = Prefix::new(addr, ls[2]);
            // Same base address: shorter always covers longer.
            prop_assert!(a.covers(&b) && b.covers(&c) && a.covers(&c));
        }

        #[test]
        fn prop_wire_round_trip(addr in any::<u32>(), len in 0u8..=32) {
            let p = Prefix::new(addr, len);
            prop_assert_eq!(pvr_crypto::decode_exact::<Prefix>(&p.to_wire()).unwrap(), p);
        }
    }
}
