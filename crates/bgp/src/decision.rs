//! The BGP decision process.
//!
//! This is the pipeline the paper's §2.1 describes operator-by-operator:
//! "An example would be an operator for selecting, from a given set of
//! routes, the routes with minimal AS path length (the second step in
//! BGP). A pipeline of such operators, one for each attribute, makes up
//! the usual route selection process."
//!
//! Ranking implemented (standard order, minus iBGP-only steps):
//! 1. highest LOCAL_PREF;
//! 2. shortest AS path;
//! 3. lowest ORIGIN (IGP < EGP < INCOMPLETE);
//! 4. lowest MED (compared across all neighbors — "always-compare-med",
//!    a common router knob; documented simplification);
//! 5. lowest neighbor ASN (deterministic stand-in for the router-id
//!    tiebreak).
//!
//! Omissions (documented, smoltcp-style): no iBGP/eBGP preference step
//! (there is no iBGP), no IGP-metric step, no route age.

use crate::route::Route;
use crate::types::Asn;
use pvr_crypto::Wire;
use std::cmp::Ordering;

/// A candidate in the decision process: a route plus the neighbor it was
/// learned from (`None` for locally originated routes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The route under consideration.
    pub route: Route,
    /// Which neighbor advertised it.
    pub learned_from: Option<Asn>,
}

impl Candidate {
    /// Wraps a route learned from `neighbor`.
    pub fn from_neighbor(route: Route, neighbor: Asn) -> Candidate {
        Candidate { route, learned_from: Some(neighbor) }
    }

    /// Wraps a locally originated route.
    pub fn local(route: Route) -> Candidate {
        Candidate { route, learned_from: None }
    }
}

// Candidates are what the checkpoint layer persists per Loc-RIB entry
// (and what the copy-on-write RIB store keeps per snapshot cell), so
// they carry the same canonical encoding routes do on the wire.
pvr_crypto::wire_struct!(Candidate { route, learned_from });

/// A [`Candidate`] borrowed from where its route is stored. The router
/// keeps a selected route once — in the Adj-RIB-In entry or the local
/// origination that won — and hands it out in this form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateRef<'a> {
    /// The route under consideration.
    pub route: &'a Route,
    /// Which neighbor advertised it.
    pub learned_from: Option<Asn>,
}

impl Candidate {
    /// This candidate, borrowed.
    pub fn borrowed(&self) -> CandidateRef<'_> {
        CandidateRef { route: &self.route, learned_from: self.learned_from }
    }
}

impl<'a> CandidateRef<'a> {
    /// A locally originated route as a candidate.
    pub fn local(route: &'a Route) -> CandidateRef<'a> {
        CandidateRef { route, learned_from: None }
    }

    /// An owned copy (the route's path and communities stay shared).
    pub fn to_candidate(self) -> Candidate {
        Candidate { route: self.route.clone(), learned_from: self.learned_from }
    }

    /// Appends exactly the bytes [`Candidate`]'s encoding of the same
    /// route and neighbor would.
    pub fn encode(self, buf: &mut Vec<u8>) {
        self.route.encode(buf);
        self.learned_from.encode(buf);
    }

    /// [`CandidateRef::encode`] into a fresh vector.
    pub fn to_wire(self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Compares two candidates; `Ordering::Greater` means `a` is preferred.
pub fn prefer(a: &Candidate, b: &Candidate) -> Ordering {
    prefer_refs(&a.route, a.learned_from, &b.route, b.learned_from)
}

/// [`prefer`] over borrowed parts: the RIB's reselection compares
/// candidates in place (straight out of the Adj-RIB-In) without
/// materializing owned [`Candidate`]s.
pub fn prefer_refs(
    a_route: &Route,
    a_from: Option<Asn>,
    b_route: &Route,
    b_from: Option<Asn>,
) -> Ordering {
    // 1. Highest LOCAL_PREF.
    match a_route.local_pref.cmp(&b_route.local_pref) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 2. Shortest AS path (fewer hops preferred ⇒ reverse compare).
    match b_route.path_len().cmp(&a_route.path_len()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 3. Lowest origin.
    match b_route.origin.cmp(&a_route.origin) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 4. Lowest MED.
    match b_route.med.cmp(&a_route.med) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 5. Local routes beat learned ones; then lowest neighbor ASN.
    let a_key = a_from.map(|n| n.0).unwrap_or(0);
    let b_key = b_from.map(|n| n.0).unwrap_or(0);
    b_key.cmp(&a_key)
}

/// Selects the best candidate, or `None` if the set is empty.
///
/// Deterministic: ties are fully broken by [`prefer`], so the result
/// does not depend on input order (asserted by property tests).
pub fn best<'a, I>(candidates: I) -> Option<&'a Candidate>
where
    I: IntoIterator<Item = &'a Candidate>,
{
    candidates.into_iter().max_by(|a, b| prefer(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use crate::route::Origin;
    use crate::types::Prefix;
    use proptest::prelude::*;

    fn route(path: &[u32], lp: u32) -> Route {
        let mut r = Route::originate(Prefix::parse("10.0.0.0/8").unwrap());
        r.path = AsPath::from_slice(&path.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r.local_pref = lp;
        r
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let long_but_preferred = Candidate::from_neighbor(route(&[1, 2, 3], 200), Asn(1));
        let short = Candidate::from_neighbor(route(&[4], 100), Asn(4));
        let c = [long_but_preferred.clone(), short];
        assert_eq!(best(&c), Some(&long_but_preferred));
    }

    #[test]
    fn shorter_path_wins_at_equal_pref() {
        let short = Candidate::from_neighbor(route(&[4], 100), Asn(4));
        let long = Candidate::from_neighbor(route(&[1, 2, 3], 100), Asn(1));
        let c = [long, short.clone()];
        assert_eq!(best(&c), Some(&short));
    }

    #[test]
    fn origin_breaks_path_ties() {
        let mut egp = route(&[1], 100);
        egp.origin = Origin::Egp;
        let igp = route(&[2], 100);
        let a = Candidate::from_neighbor(egp, Asn(1));
        let b = Candidate::from_neighbor(igp, Asn(2));
        let c = [a, b.clone()];
        assert_eq!(best(&c), Some(&b));
    }

    #[test]
    fn med_breaks_remaining_ties() {
        let mut hi = route(&[1], 100);
        hi.med = 50;
        let mut lo = route(&[2], 100);
        lo.med = 10;
        let a = Candidate::from_neighbor(hi, Asn(1));
        let b = Candidate::from_neighbor(lo, Asn(2));
        let c = [a, b.clone()];
        assert_eq!(best(&c), Some(&b));
    }

    #[test]
    fn neighbor_asn_is_final_tiebreak() {
        let a = Candidate::from_neighbor(route(&[9], 100), Asn(9));
        let b = Candidate::from_neighbor(route(&[5], 100), Asn(5));
        let c = [a, b.clone()];
        assert_eq!(best(&c), Some(&b));
    }

    #[test]
    fn local_route_beats_learned_all_else_equal() {
        let learned = Candidate::from_neighbor(route(&[], 100), Asn(5));
        let local = Candidate::local(route(&[], 100));
        let c = [learned, local.clone()];
        assert_eq!(best(&c), Some(&local));
    }

    #[test]
    fn empty_set_has_no_best() {
        assert_eq!(best(&[]), None);
    }

    proptest! {
        #[test]
        fn prop_order_independent(
            lens in proptest::collection::vec(0usize..6, 1..8),
            prefs in proptest::collection::vec(90u32..110, 1..8),
        ) {
            let n = lens.len().min(prefs.len());
            let mut cands: Vec<Candidate> = (0..n).map(|i| {
                let path: Vec<u32> = (0..lens[i]).map(|h| (100 + i * 10 + h) as u32).collect();
                Candidate::from_neighbor(route(&path, prefs[i]), Asn(i as u32 + 1))
            }).collect();
            let forward = best(&cands).cloned();
            cands.reverse();
            let backward = best(&cands).cloned();
            prop_assert_eq!(forward, backward);
        }

        #[test]
        fn prop_prefer_is_antisymmetric(
            l1 in 0usize..5, l2 in 0usize..5,
            p1 in 90u32..110, p2 in 90u32..110,
        ) {
            let a = Candidate::from_neighbor(route(&vec![11; l1], p1), Asn(1));
            let b = Candidate::from_neighbor(route(&vec![22; l2], p2), Asn(2));
            prop_assert_eq!(prefer(&a, &b), prefer(&b, &a).reverse());
        }
    }
}
