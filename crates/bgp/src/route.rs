//! Routes and their attributes.
//!
//! A `Route` is the unit PVR's route-flow graphs operate on: the paper's
//! operators consume "routes and sets of routes, but also communities,
//! AS paths, prefixes, etc." (§2.1). We carry the attributes the
//! standard decision process ranks, plus communities for policy tagging.

use crate::path::AsPath;
use crate::types::{Asn, Prefix};
use std::sync::{Arc, OnceLock};

/// BGP ORIGIN attribute (ranked IGP < EGP < INCOMPLETE).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Origin {
    /// Learned from an interior protocol.
    #[default]
    Igp,
    /// Learned via EGP.
    Egp,
    /// Unknown provenance.
    Incomplete,
}

pvr_crypto::wire_enum!(Origin { 0 => Igp, 1 => Egp, 2 => Incomplete });

/// A BGP community value `asn:tag`, used by export policies (e.g.
/// region tagging for partial transit).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u16, pub u16);

impl Community {
    /// Well-known NO_EXPORT.
    pub const NO_EXPORT: Community = Community(0xffff, 0xff01);
}

impl std::fmt::Debug for Community {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.0, self.1)
    }
}

pvr_crypto::wire_struct!(Community { 0, 1 });

/// A route to a prefix with its path attributes.
///
/// Cloning is O(1)-ish: the path and community set are `Arc`-shared,
/// so per-neighbor fan-out, RIB entries, and delivery traces bump
/// reference counts instead of copying attribute bytes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// AS-level path, nearest AS first.
    pub path: AsPath,
    /// LOCAL_PREF (import policy sets this; higher wins).
    pub local_pref: u32,
    /// Multi-exit discriminator (lower wins).
    pub med: u32,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// Communities, kept sorted and deduplicated (shared storage;
    /// [`Route::with_community`] builds a new set).
    pub communities: Arc<[Community]>,
}

/// The shared empty community set (the common case: most routes carry
/// no communities, and this avoids one allocation per route).
fn no_communities() -> Arc<[Community]> {
    static EMPTY: OnceLock<Arc<[Community]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from([])).clone()
}

impl Route {
    /// Default LOCAL_PREF applied when no import policy overrides it.
    pub const DEFAULT_LOCAL_PREF: u32 = 100;

    /// A locally originated route for `prefix`.
    pub fn originate(prefix: Prefix) -> Route {
        Route {
            prefix,
            path: AsPath::empty(),
            local_pref: Self::DEFAULT_LOCAL_PREF,
            med: 0,
            origin: Origin::Igp,
            communities: no_communities(),
        }
    }

    /// Hop count of the AS path.
    pub fn path_len(&self) -> usize {
        self.path.len()
    }

    /// Adds a community (idempotent, keeps order canonical). Builds a
    /// fresh shared set; existing clones of the route are unaffected.
    pub fn with_community(mut self, c: Community) -> Route {
        if let Err(pos) = self.communities.binary_search(&c) {
            let mut v = Vec::with_capacity(self.communities.len() + 1);
            v.extend_from_slice(&self.communities);
            v.insert(pos, c);
            self.communities = v.into();
        }
        self
    }

    /// True if the route carries `c`.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.binary_search(&c).is_ok()
    }

    /// The route as propagated by `asn` to a neighbor: path prepended,
    /// LOCAL_PREF and MED reset (they are not transitive across eBGP).
    pub fn propagated_by(&self, asn: Asn) -> Route {
        Route {
            prefix: self.prefix,
            path: self.path.prepend(asn),
            local_pref: Self::DEFAULT_LOCAL_PREF,
            med: 0,
            origin: self.origin,
            communities: self.communities.clone(),
        }
    }
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} via [{}] lp={}", self.prefix, self.path, self.local_pref)
    }
}

pvr_crypto::wire_struct!(Route { prefix, path, local_pref, med, origin, communities });

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::Wire;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    #[test]
    fn origination() {
        let r = Route::originate(prefix());
        assert_eq!(r.path_len(), 0);
        assert_eq!(r.local_pref, 100);
        assert!(r.communities.is_empty());
    }

    #[test]
    fn propagation_prepends_and_resets() {
        let mut r = Route::originate(prefix());
        r.local_pref = 500;
        r.med = 9;
        let p = r.propagated_by(Asn(1)).propagated_by(Asn(2));
        assert_eq!(p.path.asns(), &[Asn(2), Asn(1)]);
        assert_eq!(p.local_pref, Route::DEFAULT_LOCAL_PREF);
        assert_eq!(p.med, 0);
    }

    #[test]
    fn communities_canonical() {
        let r = Route::originate(prefix())
            .with_community(Community(65000, 2))
            .with_community(Community(65000, 1))
            .with_community(Community(65000, 2)); // duplicate
        assert_eq!(&r.communities[..], &[Community(65000, 1), Community(65000, 2)]);
        assert!(r.has_community(Community(65000, 1)));
        assert!(!r.has_community(Community(65000, 3)));
    }

    #[test]
    fn communities_survive_propagation() {
        let r = Route::originate(prefix()).with_community(Community::NO_EXPORT);
        assert!(r.propagated_by(Asn(5)).has_community(Community::NO_EXPORT));
    }

    #[test]
    fn origin_ranking_order() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn wire_rejects_bad_origin() {
        let mut bytes = Route::originate(prefix()).to_wire();
        // origin is right after prefix(5) + path(4 for empty) + lp(4) + med(4)
        bytes[5 + 4 + 4 + 4] = 9;
        assert!(pvr_crypto::decode_exact::<Route>(&bytes).is_err());
    }

    #[test]
    fn display_is_readable() {
        let r = Route::originate(prefix()).propagated_by(Asn(3));
        assert!(r.to_string().contains("10.0.0.0/8"));
        assert!(r.to_string().contains('3'));
    }
}
