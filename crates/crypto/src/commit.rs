//! Hash commitments with random blinding.
//!
//! This is the paper's first building block (§3.4): "a commitment
//! mechanism to ensure that a network cannot change its mind about its
//! decisions after the fact". The concrete construction follows §3.2:
//! `c := H(b || p)` where `p` is a random bitstring — the paper's own
//! footnote 2 explains why the blinding is mandatory ("If p were not
//! included in the hash, any neighbor could simply check whether
//! c = H(0) or c = H(1)"). We add a domain-separation tag so commitments
//! from different protocol contexts can never be confused.

use crate::drbg::HmacDrbg;
use crate::sha256::{sha256_concat, Digest};

/// Length of the blinding string in bytes (256 bits, matching the hash).
pub const BLIND_LEN: usize = 32;

/// The random blinding value `p` from the paper.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Blinding(pub [u8; BLIND_LEN]);

impl Blinding {
    /// Draws a fresh blinding from the DRBG.
    pub fn random(rng: &mut HmacDrbg) -> Blinding {
        let mut b = [0u8; BLIND_LEN];
        rng.generate(&mut b);
        Blinding(b)
    }
}

impl std::fmt::Debug for Blinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Blindings are secrets until opened; avoid printing them fully.
        write!(f, "Blinding(…)")
    }
}

/// A hiding, binding commitment `H(tag || value || blind)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Commitment(pub Digest);

/// The data needed to open a commitment: the committed value plus the
/// blinding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Opening {
    /// The committed byte string.
    pub value: Vec<u8>,
    /// The blinding `p`.
    pub blind: Blinding,
}

/// Computes the commitment digest for `(tag, value, blind)`.
fn commit_digest(tag: &[u8], value: &[u8], blind: &Blinding) -> Digest {
    // Length-prefix tag and value so (tag, value) pairs cannot collide
    // across boundaries.
    let tag_len = (tag.len() as u32).to_be_bytes();
    let val_len = (value.len() as u32).to_be_bytes();
    sha256_concat(&[b"pvr.commit.v1", &tag_len, tag, &val_len, value, &blind.0])
}

/// Commits to `value` under domain-separation `tag`, drawing the blinding
/// from `rng`. Returns the public commitment and the private opening.
pub fn commit(tag: &[u8], value: &[u8], rng: &mut HmacDrbg) -> (Commitment, Opening) {
    let blind = Blinding::random(rng);
    let c = Commitment(commit_digest(tag, value, &blind));
    (c, Opening { value: value.to_vec(), blind })
}

/// Commits with a caller-supplied blinding (used where blindings must be
/// derived deterministically, e.g. per-vertex in the MHT).
pub fn commit_with(tag: &[u8], value: &[u8], blind: Blinding) -> Commitment {
    Commitment(commit_digest(tag, value, &blind))
}

/// Verifies that `opening` opens `commitment` under `tag`.
pub fn verify(tag: &[u8], commitment: &Commitment, opening: &Opening) -> bool {
    commit_digest(tag, &opening.value, &opening.blind) == commitment.0
}

crate::wire_struct!(Commitment { 0 });
crate::wire_struct!(Blinding { 0 });
crate::wire_struct!(Opening { value, blind });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Wire;
    use proptest::prelude::*;

    fn rng() -> HmacDrbg {
        HmacDrbg::new(b"commit tests")
    }

    #[test]
    fn commit_open_round_trip() {
        let mut r = rng();
        let (c, o) = commit(b"bit", &[1], &mut r);
        assert!(verify(b"bit", &c, &o));
    }

    #[test]
    fn wrong_value_rejected() {
        let mut r = rng();
        let (c, mut o) = commit(b"bit", &[1], &mut r);
        o.value = vec![0];
        assert!(!verify(b"bit", &c, &o));
    }

    #[test]
    fn wrong_blind_rejected() {
        let mut r = rng();
        let (c, mut o) = commit(b"bit", &[1], &mut r);
        o.blind.0[0] ^= 1;
        assert!(!verify(b"bit", &c, &o));
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut r = rng();
        let (c, o) = commit(b"bit", &[1], &mut r);
        assert!(!verify(b"other", &c, &o));
    }

    #[test]
    fn hiding_same_value_different_commitments() {
        // The paper's footnote-2 property: committing to the same bit twice
        // must produce different commitments, or neighbors could test
        // candidate values by hashing them.
        let mut r = rng();
        let (c1, _) = commit(b"bit", &[1], &mut r);
        let (c2, _) = commit(b"bit", &[1], &mut r);
        assert_ne!(c1, c2);
    }

    #[test]
    fn tag_value_boundary_cannot_collide() {
        // ("ab", "c") and ("a", "bc") must commit differently even with the
        // same blinding, thanks to length prefixes.
        let blind = Blinding([7u8; BLIND_LEN]);
        let c1 = commit_with(b"ab", b"c", blind);
        let c2 = commit_with(b"a", b"bc", blind);
        assert_ne!(c1, c2);
    }

    #[test]
    fn deterministic_with_fixed_blinding() {
        let blind = Blinding([9u8; BLIND_LEN]);
        assert_eq!(commit_with(b"t", b"v", blind), commit_with(b"t", b"v", blind));
    }

    #[test]
    fn wire_round_trips() {
        let mut r = rng();
        let (c, o) = commit(b"t", b"some value", &mut r);
        let c2: Commitment = crate::encoding::decode_exact(&c.to_wire()).unwrap();
        let o2: Opening = crate::encoding::decode_exact(&o.to_wire()).unwrap();
        assert_eq!(c, c2);
        assert_eq!(o, o2);
        assert!(verify(b"t", &c2, &o2));
    }

    proptest! {
        #[test]
        fn prop_round_trip(tag in proptest::collection::vec(any::<u8>(), 0..16),
                           value in proptest::collection::vec(any::<u8>(), 0..64),
                           seed in any::<u64>()) {
            let mut r = HmacDrbg::from_u64_labeled(seed, "prop-commit");
            let (c, o) = commit(&tag, &value, &mut r);
            prop_assert!(verify(&tag, &c, &o));
        }

        #[test]
        fn prop_binding(tag in proptest::collection::vec(any::<u8>(), 0..8),
                        v1 in proptest::collection::vec(any::<u8>(), 0..32),
                        v2 in proptest::collection::vec(any::<u8>(), 0..32),
                        seed in any::<u64>()) {
            prop_assume!(v1 != v2);
            let mut r = HmacDrbg::from_u64_labeled(seed, "prop-bind");
            let (c, o) = commit(&tag, &v1, &mut r);
            let forged = Opening { value: v2, blind: o.blind };
            prop_assert!(!verify(&tag, &c, &forged));
        }
    }
}
