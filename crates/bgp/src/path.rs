//! AS paths.
//!
//! The AS path is the attribute PVR's minimum operator reasons about
//! (§3.3 verifies "the route A has exported to B is not longer than
//! r_i"). We implement the `AS_SEQUENCE` form only — `AS_SET`
//! aggregation is a documented omission (it is rare in the modern
//! Internet and orthogonal to the paper's mechanisms).

use crate::types::Asn;
use std::sync::Arc;

/// An ordered AS-level path, nearest AS first (as in BGP updates).
///
/// Backed by an `Arc<[Asn]>`: cloning a path — which happens on every
/// per-neighbor export, every Adj-RIB entry, every attestation, and
/// every traced delivery — is a reference-count bump, never a copy of
/// the AS sequence. The single allocation happens in [`AsPath::prepend`]
/// (or [`AsPath::from_slice`]); all downstream clones share it. The
/// backing storage is immutable, so equality, ordering, and hashing are
/// observationally identical to the owned-`Vec` representation (pinned
/// by property tests).
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct AsPath(Arc<[Asn]>);

impl AsPath {
    /// The empty path (a locally originated route).
    pub fn empty() -> AsPath {
        AsPath::default()
    }

    /// Builds from a slice, nearest AS first.
    pub fn from_slice(asns: &[Asn]) -> AsPath {
        AsPath(Arc::from(asns))
    }

    /// Path length in AS hops — the quantity the minimum operator
    /// compares.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a locally originated route.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ASes in order, nearest first.
    pub fn asns(&self) -> &[Asn] {
        &self.0
    }

    /// The AS that originated the route (last element), if any.
    pub fn origin_as(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The neighbor the route was learned from (first element), if any.
    pub fn first_as(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// Returns a new path with `asn` prepended (what an AS does when it
    /// propagates a route). This is the one place a propagated path is
    /// materialized; every subsequent clone shares the result.
    pub fn prepend(&self, asn: Asn) -> AsPath {
        // Both halves report an exact length, so this collects straight
        // into the `Arc`'s one allocation.
        AsPath(std::iter::once(asn).chain(self.0.iter().copied()).collect())
    }

    /// True if `asn` appears anywhere on the path (BGP loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.contains(&asn)
    }

    /// True if any AS appears more than once.
    pub fn has_loop(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.0.len());
        self.0.iter().any(|a| !seen.insert(a))
    }
}

impl std::fmt::Debug for AsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::fmt::Display for AsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            return write!(f, "(local)");
        }
        let parts: Vec<String> = self.0.iter().map(|a| a.0.to_string()).collect();
        write!(f, "{}", parts.join(" "))
    }
}

pvr_crypto::wire_struct!(AsPath { 0 });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pvr_crypto::Wire;

    fn path(asns: &[u32]) -> AsPath {
        AsPath::from_slice(&asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>())
    }

    #[test]
    fn construction_and_accessors() {
        let p = path(&[3, 2, 1]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.first_as(), Some(Asn(3)));
        assert_eq!(p.origin_as(), Some(Asn(1)));
        assert!(!p.is_empty());
        assert!(AsPath::empty().is_empty());
        assert_eq!(AsPath::empty().origin_as(), None);
    }

    #[test]
    fn prepend_preserves_original() {
        let p = path(&[2, 1]);
        let q = p.prepend(Asn(3));
        assert_eq!(q, path(&[3, 2, 1]));
        assert_eq!(p, path(&[2, 1]));
    }

    #[test]
    fn loop_detection() {
        assert!(!path(&[3, 2, 1]).has_loop());
        assert!(path(&[3, 2, 3]).has_loop());
        assert!(path(&[1, 2, 3]).contains(Asn(2)));
        assert!(!path(&[1, 2, 3]).contains(Asn(9)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(path(&[3, 2, 1]).to_string(), "3 2 1");
        assert_eq!(AsPath::empty().to_string(), "(local)");
    }

    proptest! {
        #[test]
        fn prop_prepend_grows_by_one(asns in proptest::collection::vec(any::<u32>(), 0..12),
                                     head in any::<u32>()) {
            let p = path(&asns);
            let q = p.prepend(Asn(head));
            prop_assert_eq!(q.len(), p.len() + 1);
            prop_assert_eq!(q.first_as(), Some(Asn(head)));
            prop_assert!(q.contains(Asn(head)));
        }

        #[test]
        fn prop_wire_round_trip(asns in proptest::collection::vec(any::<u32>(), 0..16)) {
            let p = path(&asns);
            prop_assert_eq!(pvr_crypto::decode_exact::<AsPath>(&p.to_wire()).unwrap(), p);
            prop_assert_eq!(p.encoded_len(), p.to_wire().len());
        }

        // The Arc-backed representation must be observationally
        // identical to the owned-Vec one it replaced: content, clones,
        // equality/ordering/hashing, and wire bytes all behave as if
        // the path were a plain `Vec<Asn>`.
        #[test]
        fn prop_shared_repr_matches_owned(
            a in proptest::collection::vec(any::<u32>(), 0..12),
            b in proptest::collection::vec(any::<u32>(), 0..12),
            head in any::<u32>(),
        ) {
            let pa = path(&a);
            let pb = path(&b);
            let va: Vec<Asn> = a.iter().map(|&x| Asn(x)).collect();
            let vb: Vec<Asn> = b.iter().map(|&x| Asn(x)).collect();
            // Eq/Ord delegate to content, exactly as Vec's would.
            prop_assert_eq!(pa == pb, va == vb);
            prop_assert_eq!(pa.cmp(&pb), va.cmp(&vb));
            // Hashing is content-based: equal paths hash equal.
            use std::hash::{BuildHasher, RandomState};
            let s = RandomState::new();
            prop_assert_eq!(s.hash_one(&pa) == s.hash_one(&pb), (pa == pb));
            // Prepend materializes exactly the reference sequence, and
            // the shared clone is indistinguishable from the original.
            let q = pa.prepend(Asn(head));
            let mut reference = vec![Asn(head)];
            reference.extend_from_slice(&va);
            prop_assert_eq!(q.asns(), &reference[..]);
            let shared = q.clone();
            prop_assert_eq!(&shared, &q);
            prop_assert_eq!(shared.to_wire(), q.to_wire());
            // Wire bytes equal the encoding of the underlying sequence.
            prop_assert_eq!(q.to_wire(), reference.to_wire());
            prop_assert_eq!(pvr_crypto::decode_exact::<AsPath>(&q.to_wire()).unwrap(), q);
        }
    }
}
