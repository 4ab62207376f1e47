//! Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//!
//! The Adj-RIB-In is exactly the "set of input routes the AS might
//! receive" against which the paper defines promise violations (§2); the
//! Adj-RIB-Out is what it actually emitted. A promise is about one
//! prefix, and so is every step of UPDATE processing, so the router
//! keeps the three RIBs of one prefix together in a `PrefixCell`:
//! the candidates heard, which of them is selected, and — in the few
//! cells that advertise anything — the route sent with the neighbors
//! holding it. PVR's verifier and the experiments compare
//! permitted vs. actual outputs through the router's accessors
//! (`route_from`, `best_route`, `advertised_to`). A checkpoint holds
//! the RIB the same way: one record per cell
//! (`PrefixCell::encode_record`).
//!
//! The decision scan and its incremental short-circuit exist once, in
//! `decide`; `PrefixCell::reselect` applies it to a cell, and
//! [`LocRib::reselect_with_hint`] applies it to the standalone
//! [`AdjRibIn`] + [`LocRib`] containers, which the decision benchmark
//! probe and the router's differential test model are built from.

use crate::decision::{prefer_refs, Candidate, CandidateRef};
use crate::route::Route;
use crate::sorted::SortedMap;
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Routes received from each neighbor, per prefix (post-import-policy).
///
/// Storage shape is chosen for the hot path: the outer per-prefix index
/// is a hash map (hit on every UPDATE, never iterated during event
/// processing — accessors that expose it sort first), while the inner
/// per-neighbor candidate set is a tiny sorted vector, because its
/// ASN-ascending order is what makes the decision process and its
/// tie-breaking deterministic.
#[derive(Clone, Debug, Default)]
pub struct AdjRibIn {
    routes: HashMap<Prefix, SortedMap<Asn, Route>>,
}

impl AdjRibIn {
    /// Creates an empty RIB.
    pub fn new() -> AdjRibIn {
        AdjRibIn::default()
    }

    /// Records `route` from `neighbor`, replacing any previous route for
    /// the same prefix from that neighbor (BGP implicit withdraw).
    pub fn insert(&mut self, neighbor: Asn, route: Route) {
        self.routes.entry(route.prefix).or_default().insert(neighbor, route);
    }

    /// Removes `neighbor`'s route for `prefix`; returns whether one existed.
    pub fn remove(&mut self, neighbor: Asn, prefix: Prefix) -> bool {
        if let Some(per_neighbor) = self.routes.get_mut(&prefix) {
            let removed = per_neighbor.remove(neighbor).is_some();
            if per_neighbor.is_empty() {
                self.routes.remove(&prefix);
            }
            removed
        } else {
            false
        }
    }

    /// All candidates for `prefix`, in deterministic (ASN) order.
    ///
    /// Clones each route; the decision process itself uses
    /// [`AdjRibIn::candidate_refs`] and never materializes this vector.
    /// Kept for tests and external inspection.
    pub fn candidates(&self, prefix: Prefix) -> Vec<Candidate> {
        self.candidate_refs(prefix).map(|(n, r)| Candidate::from_neighbor(r.clone(), n)).collect()
    }

    /// Borrowed candidates for `prefix`, in deterministic (ASN) order.
    pub fn candidate_refs(&self, prefix: Prefix) -> impl Iterator<Item = (Asn, &Route)> {
        self.routes.get(&prefix).into_iter().flat_map(|per| per.iter())
    }

    /// The route `neighbor` currently advertises for `prefix`, if any.
    pub fn get(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.routes.get(&prefix)?.get(neighbor)
    }

    /// All (prefix, route) entries held from `neighbor`, in prefix order.
    pub fn from_neighbor(&self, neighbor: Asn) -> Vec<(Prefix, &Route)> {
        let mut out: Vec<(Prefix, &Route)> =
            self.routes.iter().filter_map(|(&p, per)| per.get(neighbor).map(|r| (p, r))).collect();
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// All prefixes with at least one route, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        let mut keys: Vec<Prefix> = self.routes.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Total number of (neighbor, prefix) entries.
    pub fn len(&self) -> usize {
        self.routes.values().map(SortedMap::len).sum()
    }

    /// True if no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// Why a reselection is being run — the incremental decision path's
/// license to skip work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReselectHint {
    /// Anything may have changed: scan every candidate.
    Full,
    /// Only `neighbor`'s Adj-RIB-In entry for the prefix changed
    /// (inserted, replaced, or removed); every other candidate — the
    /// local one included — is exactly as the last selection left it.
    Neighbor(Asn),
}

/// What a reselection did (statistics for the scale experiment E14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReselectOutcome {
    /// Selection unchanged after a full candidate scan.
    UnchangedScanned,
    /// Selection unchanged, decided in O(1) from the hint — the new or
    /// removed route loses to the standing best without a rescan.
    UnchangedShortCircuit,
    /// Selection changed.
    Changed,
}

impl ReselectOutcome {
    /// True when the selection changed (the trigger for
    /// re-advertisement).
    pub fn changed(self) -> bool {
        matches!(self, ReselectOutcome::Changed)
    }
}

/// What [`decide`] concluded.
enum Decision<'a> {
    /// Keep the standing selection; carries which unchanged outcome.
    Keep(ReselectOutcome),
    /// Replace the selection with this one (`None`: nothing is
    /// selectable any more).
    Select(Option<CandidateRef<'a>>),
}

/// The decision process for one prefix: `current` is the standing
/// selection as the last decision left it, `candidates` the prefix's
/// Adj-RIB-In, `local` the locally originated candidate.
///
/// With [`ReselectHint::Neighbor`], an arrival that *loses* to the
/// standing best (or a withdrawal of a non-best route) is decided
/// with one comparison and no candidate scan — the common case on a
/// converged or converging network, where most announcements are
/// longer-path alternatives to an already-selected route. An
/// arrival that *beats* the standing best is installed directly:
/// every other candidate already lost to the old best, so by
/// transitivity of the ranking none of them needs re-examining.
///
/// The full scan compares candidates by reference (in Adj-RIB-In
/// order, local candidate last, ties resolved toward the later
/// candidate exactly like `max_by` over the materialized vector); the
/// selection comes back borrowed, and whether anything is cloned is up
/// to the caller.
fn decide<'a>(
    current: Option<CandidateRef<'_>>,
    candidates: Option<&'a SortedMap<Asn, Route>>,
    local: Option<CandidateRef<'a>>,
    hint: ReselectHint,
) -> Decision<'a> {
    if let (ReselectHint::Neighbor(n), Some(cur)) = (hint, current) {
        // The incremental path applies only when the standing best is
        // *not* the changed neighbor's route (that case needs a rescan:
        // its replacement may have weakened).
        if cur.learned_from != Some(n) {
            match candidates.and_then(|per| per.get(n)) {
                None => return Decision::Keep(ReselectOutcome::UnchangedShortCircuit),
                Some(r) => match prefer_refs(r, Some(n), cur.route, cur.learned_from) {
                    Ordering::Less => {
                        return Decision::Keep(ReselectOutcome::UnchangedShortCircuit);
                    }
                    Ordering::Greater => {
                        return Decision::Select(Some(CandidateRef {
                            route: r,
                            learned_from: Some(n),
                        }));
                    }
                    // A tie against the standing best can only involve
                    // degenerate neighbor keys; resolve it with the full
                    // scan's deterministic order.
                    Ordering::Equal => {}
                },
            }
        }
    }

    // Full scan by reference: later candidates win ties, matching
    // `Iterator::max_by` over [neighbors ascending, local last].
    let learned = candidates
        .into_iter()
        .flat_map(|per| per.iter())
        .map(|(n, route)| CandidateRef { route, learned_from: Some(n) });
    let mut new_best: Option<CandidateRef<'a>> = None;
    for cand in learned.chain(local) {
        new_best = match new_best {
            Some(best)
                if prefer_refs(cand.route, cand.learned_from, best.route, best.learned_from)
                    == Ordering::Less =>
            {
                Some(best)
            }
            _ => Some(cand),
        };
    }
    if new_best == current {
        return Decision::Keep(ReselectOutcome::UnchangedScanned);
    }
    Decision::Select(new_best)
}

/// The selected best route per prefix.
#[derive(Clone, Debug, Default)]
pub struct LocRib {
    best: HashMap<Prefix, Candidate>,
}

impl LocRib {
    /// Creates an empty Loc-RIB.
    pub fn new() -> LocRib {
        LocRib::default()
    }

    /// Recomputes the best route for `prefix` from `adj_in` plus any
    /// locally originated candidate. Returns `true` if the selection
    /// changed (the trigger for re-advertisement).
    pub fn reselect(
        &mut self,
        prefix: Prefix,
        adj_in: &AdjRibIn,
        local: Option<&Candidate>,
    ) -> bool {
        self.reselect_with_hint(prefix, adj_in, local, ReselectHint::Full).changed()
    }

    /// [`LocRib::reselect`] with an incremental hint: see
    /// [`ReselectHint`] for what the hint promises and
    /// [`ReselectOutcome`] for what comes back.
    pub fn reselect_with_hint(
        &mut self,
        prefix: Prefix,
        adj_in: &AdjRibIn,
        local: Option<&Candidate>,
        hint: ReselectHint,
    ) -> ReselectOutcome {
        let current = self.best.get(&prefix).map(Candidate::borrowed);
        let local = local.map(Candidate::borrowed);
        match decide(current, adj_in.routes.get(&prefix), local, hint) {
            Decision::Keep(unchanged) => unchanged,
            Decision::Select(new) => {
                match new {
                    Some(cand) => self.best.insert(prefix, cand.to_candidate()),
                    None => self.best.remove(&prefix),
                };
                ReselectOutcome::Changed
            }
        }
    }

    /// The current selection for `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&Candidate> {
        self.best.get(&prefix)
    }

    /// All selected prefixes, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        let mut keys: Vec<Prefix> = self.best.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Number of selected routes.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }
}

/// Which entry of a [`PrefixCell`] the Loc-RIB selection is. The
/// selected route is stored once, in that entry; the cell keeps only
/// its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum Selection {
    /// Nothing is selected.
    #[default]
    None,
    /// The candidate held from this neighbor.
    Neighbor(Asn),
    /// The local origination.
    Local,
}

impl Selection {
    /// The entry a candidate learned from `learned_from` lives in.
    fn of(learned_from: Option<Asn>) -> Selection {
        learned_from.map_or(Selection::Local, Selection::Neighbor)
    }

    /// The `learned_from` of the candidate in this entry.
    fn learned_from(self) -> Option<Asn> {
        match self {
            Selection::Neighbor(n) => Some(n),
            Selection::None | Selection::Local => None,
        }
    }
}

/// The part of a [`PrefixCell`] that only a cell which originates or
/// advertises something has: 3 cells in 100 at Internet-like scale
/// (DESIGN.md, "Per-prefix RIB cells"), so it lives behind one pointer.
#[derive(Clone, Debug, Default)]
struct Outbound {
    /// The locally originated route, while this AS originates the
    /// prefix.
    local: Option<Route>,
    /// Adj-RIB-Out: the route last advertised; `Some` exactly while
    /// `out_to` is non-empty.
    out: Option<Route>,
    /// The neighbors currently holding `out`, in ASN order.
    out_to: Vec<Asn>,
}

/// Everything a router knows about one prefix: its slice of the
/// Adj-RIB-In, Loc-RIB and Adj-RIB-Out, and the local origination.
///
/// The Adj-RIB-Out is one route, not one per neighbor: a router sends
/// the same propagated route to every neighbor export policy admits and
/// withdraws it from the rest on every selection change, so the
/// per-neighbor entries of a prefix are always equal and only the set
/// of holders varies (the argument is spelled out in DESIGN.md,
/// "Per-prefix RIB cells").
///
/// Between handlers the selection names a present entry — a candidate
/// or the local origination — and `outbound` exists exactly while it
/// holds something; [`PrefixCell::check`] says so.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixCell {
    /// Adj-RIB-In: the post-import route held from each neighbor, in
    /// ASN order (the order that makes tie-breaking deterministic).
    pub(crate) candidates: SortedMap<Asn, Route>,
    /// Loc-RIB: which entry is selected.
    best: Selection,
    /// Local origination and Adj-RIB-Out; allocated on first use,
    /// dropped when it empties.
    outbound: Option<Box<Outbound>>,
}

impl PrefixCell {
    /// The route stored in `entry`.
    fn stored(&self, entry: Selection) -> Option<&Route> {
        match entry {
            Selection::None => None,
            Selection::Neighbor(n) => self.candidates.get(n),
            Selection::Local => self.local(),
        }
    }

    /// Loc-RIB: the selected route and where it was learned.
    pub(crate) fn best(&self) -> Option<CandidateRef<'_>> {
        if !self.has_best() {
            return None;
        }
        let route = self.stored(self.best).expect("the selection names a present entry");
        Some(CandidateRef { route, learned_from: self.best.learned_from() })
    }

    /// True when a route is selected.
    pub(crate) fn has_best(&self) -> bool {
        self.best != Selection::None
    }

    /// The locally originated route, while this AS originates the
    /// prefix.
    pub(crate) fn local(&self) -> Option<&Route> {
        self.outbound.as_ref()?.local.as_ref()
    }

    /// Adj-RIB-Out: the route last advertised, if anyone holds it.
    pub(crate) fn out(&self) -> Option<&Route> {
        self.outbound.as_ref()?.out.as_ref()
    }

    /// The neighbors currently holding [`out`](Self::out), in ASN order.
    pub(crate) fn out_to(&self) -> &[Asn] {
        self.outbound.as_ref().map_or(&[], |outbound| &outbound.out_to)
    }

    /// What `neighbor` currently believes we advertise.
    pub(crate) fn advertised_to(&self, neighbor: Asn) -> Option<&Route> {
        self.out_to().binary_search(&neighbor).ok().and(self.out())
    }

    /// Applies `edit` to the outbound part, which comes into being for
    /// it and goes away again if the edit leaves it empty.
    fn edit_outbound<T>(&mut self, edit: impl FnOnce(&mut Outbound) -> T) -> T {
        let outbound = self.outbound.get_or_insert_with(Box::default);
        let result = edit(outbound);
        if outbound.local.is_none() && outbound.out_to.is_empty() {
            debug_assert!(outbound.out.is_none(), "one route per holder set");
            self.outbound = None;
        }
        result
    }

    /// Starts (`Some`) or stops (`None`) originating the prefix and
    /// returns the origination this displaces, which the reselection
    /// that must follow takes.
    pub(crate) fn set_local(&mut self, route: Option<Route>) -> Option<Route> {
        if route.is_none() && self.outbound.is_none() {
            return None;
        }
        self.edit_outbound(|outbound| std::mem::replace(&mut outbound.local, route))
    }

    /// Replaces the Adj-RIB-Out: `route` is now held by exactly
    /// `holders` (ascending); no holders, no route.
    pub(crate) fn set_out(&mut self, route: Option<Route>, holders: &[Asn]) {
        if holders.is_empty() && self.outbound.is_none() {
            return;
        }
        self.edit_outbound(|outbound| {
            outbound.out_to.clear();
            outbound.out_to.extend_from_slice(holders);
            outbound.out = if holders.is_empty() { None } else { route };
        });
    }

    /// Adds `neighbor` to the holders of `route`, which every present
    /// holder must already have.
    pub(crate) fn add_holder(&mut self, neighbor: Asn, route: Route) {
        let Err(slot) = self.out_to().binary_search(&neighbor) else { return };
        self.edit_outbound(|outbound| {
            debug_assert!(outbound.out.as_ref().is_none_or(|out| *out == route));
            outbound.out_to.insert(slot, neighbor);
            outbound.out = Some(route);
        });
    }

    /// Forgets that `neighbor` holds the advertised route.
    pub(crate) fn remove_holder(&mut self, neighbor: Asn) {
        let Ok(slot) = self.out_to().binary_search(&neighbor) else { return };
        self.edit_outbound(|outbound| {
            outbound.out_to.remove(slot);
            if outbound.out_to.is_empty() {
                outbound.out = None;
            }
        });
    }

    /// Runs the decision process over this cell and installs the
    /// result.
    ///
    /// The caller has changed at most one entry since the last
    /// selection — under [`ReselectHint::Neighbor`] that neighbor's
    /// candidate, under [`ReselectHint::Full`] the local origination —
    /// and `displaced` is what that entry held when the last selection
    /// was made (what the first `insert`, `remove` or
    /// [`set_local`](Self::set_local) since then returned). When the
    /// standing selection is that very entry, `displaced` is the
    /// standing best route: the cell itself no longer has it.
    pub(crate) fn reselect(
        &mut self,
        hint: ReselectHint,
        displaced: Option<&Route>,
    ) -> ReselectOutcome {
        let edited = match hint {
            ReselectHint::Neighbor(n) => Selection::Neighbor(n),
            ReselectHint::Full => Selection::Local,
        };
        let standing = if self.best == edited { displaced } else { self.stored(self.best) };
        debug_assert_eq!(standing.is_some(), self.has_best(), "the selection named an entry");
        let current =
            standing.map(|route| CandidateRef { route, learned_from: self.best.learned_from() });
        let local = self.local().map(CandidateRef::local);
        match decide(current, Some(&self.candidates), local, hint) {
            Decision::Keep(unchanged) => unchanged,
            Decision::Select(new) => {
                self.best = new.map_or(Selection::None, |cand| Selection::of(cand.learned_from));
                ReselectOutcome::Changed
            }
        }
    }

    /// True when nothing is heard, selected, originated or advertised:
    /// the router drops such a cell, so a prefix it no longer knows
    /// costs nothing and the RIB counts read as the entries present.
    pub(crate) fn is_vacant(&self) -> bool {
        self.candidates.is_empty() && !self.has_best() && self.outbound.is_none()
    }

    /// What must hold of a cell between handlers, beyond what the
    /// router checks against its sessions: the selection names a
    /// present entry and is what a from-scratch decision picks, the
    /// outbound part is absent when empty, and an advertised route
    /// exists exactly while someone holds it.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.has_best() && self.stored(self.best).is_none() {
            return Err("selection names an absent entry");
        }
        let local = self.local().map(CandidateRef::local);
        match decide(None, Some(&self.candidates), local, ReselectHint::Full) {
            Decision::Select(scratch) if scratch == self.best() => {}
            Decision::Keep(_) if !self.has_best() => {}
            _ => return Err("selection differs from a from-scratch decision"),
        }
        if let Some(outbound) = &self.outbound {
            if outbound.local.is_none() && outbound.out_to.is_empty() {
                return Err("empty outbound part retained");
            }
        }
        if self.out().is_some() == self.out_to().is_empty() {
            return Err("advertised route without holders, or holders without one");
        }
        Ok(())
    }

    /// Appends the cell's checkpoint record: `prefix`, the candidates as
    /// `(neighbor, route)` pairs in ASN order, the selection's tag (`0`
    /// none, `1` and the neighbor's ASN, `2` local), the local
    /// origination and the holders. The advertised route is not written:
    /// between handlers it is the selection as the router propagates it.
    pub(crate) fn encode_record(&self, prefix: Prefix, buf: &mut Vec<u8>) {
        prefix.encode(buf);
        <(Asn, Route)>::encode_slice(self.candidates.as_slice(), buf);
        match self.best {
            Selection::None => buf.push(0),
            Selection::Neighbor(n) => (1u8, n).encode(buf),
            Selection::Local => buf.push(2),
        }
        self.local().cloned().encode(buf);
        Asn::encode_slice(self.out_to(), buf);
    }

    /// Reads back a record of the router `asn`, deriving the advertised
    /// route. Whether the cell is one the router could be holding is the
    /// router's check to make, before it installs anything.
    pub(crate) fn decode_record(
        r: &mut Reader<'_>,
        asn: Asn,
    ) -> Result<(Prefix, PrefixCell), WireError> {
        let prefix = Prefix::decode(r)?;
        let candidates = SortedMap::from_sorted(Vec::decode(r)?)
            .ok_or(WireError::Invalid("candidates not in ascending neighbor order"))?;
        let best = match u8::decode(r)? {
            0 => Selection::None,
            1 => Selection::Neighbor(Asn::decode(r)?),
            2 => Selection::Local,
            _ => return Err(WireError::Invalid("selection tag")),
        };
        let local = Option::<Route>::decode(r)?;
        let holders = Vec::<Asn>::decode(r)?;
        let mut cell = PrefixCell { candidates, best, outbound: None };
        cell.set_local(local);
        let out = cell.stored(best).filter(|_| !holders.is_empty()).map(|r| r.propagated_by(asn));
        cell.set_out(out, &holders);
        Ok((prefix, cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    fn route(path: &[u32], lp: u32) -> Route {
        let mut r = Route::originate(prefix());
        r.path = AsPath::from_slice(&path.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r.local_pref = lp;
        r
    }

    /// A converged 3 000-AS network holds 768 000 cells and 1.17 M
    /// candidates: a field added to any of these is paid that many
    /// times (DESIGN.md, "Per-prefix RIB cells", has the budget).
    #[test]
    fn hot_layouts_stay_small() {
        use std::mem::size_of;
        assert!(size_of::<PrefixCell>() <= 48, "PrefixCell is {} B", size_of::<PrefixCell>());
        assert!(size_of::<Selection>() <= 8, "Selection is {} B", size_of::<Selection>());
        assert!(size_of::<Route>() <= 56, "Route is {} B", size_of::<Route>());
        assert!(size_of::<Candidate>() <= 64, "Candidate is {} B", size_of::<Candidate>());
        let entry = size_of::<(Asn, Route)>();
        assert!(entry <= 64, "an Adj-RIB-In entry is {entry} B");
        // Every queued UPDATE sits in a calendar entry by value.
        let update = size_of::<crate::messages::BgpUpdate>();
        assert!(update <= 48, "BgpUpdate is {update} B");
    }

    fn cell_with(candidates: &[(u32, Route)]) -> PrefixCell {
        let mut cell = PrefixCell::default();
        for (n, r) in candidates {
            cell.candidates.insert(Asn(*n), r.clone());
        }
        cell.reselect(ReselectHint::Full, None);
        cell.check().expect("fresh cell");
        cell
    }

    /// The selection is a name, so the standing best route of the
    /// neighbor that just changed exists only in what the change
    /// displaced: each outcome the owned-copy decision gave must come
    /// out of that.
    #[test]
    fn cell_reselect_compares_against_the_displaced_route() {
        let hint = ReselectHint::Neighbor(Asn(1));
        let mut cell = cell_with(&[(1, route(&[1], 100)), (2, route(&[2, 8], 100))]);
        assert_eq!(cell.best().unwrap().learned_from, Some(Asn(1)));

        // The selected neighbor re-announces the same route: rescanned,
        // unchanged.
        let displaced = cell.candidates.insert(Asn(1), route(&[1], 100));
        assert_eq!(cell.reselect(hint, displaced.as_ref()), ReselectOutcome::UnchangedScanned);

        // A different route that still wins: same entry, but a change.
        let displaced = cell.candidates.insert(Asn(1), route(&[1, 7], 100));
        assert_eq!(cell.reselect(hint, displaced.as_ref()), ReselectOutcome::Changed);
        assert_eq!(cell.best().unwrap().route.path_len(), 2);

        // One that loses hands the selection over.
        let displaced = cell.candidates.insert(Asn(1), route(&[1, 7, 9], 100));
        assert_eq!(cell.reselect(hint, displaced.as_ref()), ReselectOutcome::Changed);
        assert_eq!(cell.best().unwrap().learned_from, Some(Asn(2)));

        // Now it is a non-selected neighbor's churn: one comparison.
        let displaced = cell.candidates.remove(Asn(1));
        assert_eq!(cell.reselect(hint, displaced.as_ref()), ReselectOutcome::UnchangedShortCircuit);
        cell.check().expect("after neighbor churn");

        // Withdrawing the last candidate leaves nothing selected.
        let displaced = cell.candidates.remove(Asn(2));
        let outcome = cell.reselect(ReselectHint::Neighbor(Asn(2)), displaced.as_ref());
        assert_eq!(outcome, ReselectOutcome::Changed);
        assert!(cell.best().is_none() && cell.is_vacant());
    }

    /// The outbound part exists exactly while the cell originates or
    /// advertises something, and an origination displaced while it is
    /// the selection is what the reselection compares against.
    #[test]
    fn cell_outbound_part_comes_and_goes() {
        let mut cell = cell_with(&[(1, route(&[1], 100))]);
        assert!(cell.outbound.is_none());
        cell.set_out(Some(route(&[9, 1], 100)), &[]);
        cell.remove_holder(Asn(3));
        assert!(cell.set_local(None).is_none());
        assert!(cell.outbound.is_none(), "nothing to hold, nothing allocated");

        let displaced = cell.set_local(Some(route(&[], 100)));
        assert_eq!(cell.reselect(ReselectHint::Full, displaced.as_ref()), ReselectOutcome::Changed);
        assert_eq!(cell.best().unwrap().learned_from, None);
        // Originating it again changes nothing.
        let displaced = cell.set_local(Some(route(&[], 100)));
        let outcome = cell.reselect(ReselectHint::Full, displaced.as_ref());
        assert_eq!(outcome, ReselectOutcome::UnchangedScanned);

        cell.set_out(Some(route(&[9], 100)), &[Asn(2), Asn(4)]);
        cell.add_holder(Asn(3), route(&[9], 100));
        assert_eq!(cell.out_to(), &[Asn(2), Asn(3), Asn(4)]);
        assert_eq!(cell.advertised_to(Asn(3)), Some(&route(&[9], 100)));
        assert_eq!(cell.advertised_to(Asn(5)), None);
        cell.check().expect("originating and advertising");

        // The origination goes, the holders keep the part alive …
        let displaced = cell.set_local(None);
        assert_eq!(cell.reselect(ReselectHint::Full, displaced.as_ref()), ReselectOutcome::Changed);
        assert_eq!(cell.best().unwrap().learned_from, Some(Asn(1)));
        assert!(cell.outbound.is_some());
        // … until the last of them is gone.
        for holder in [Asn(2), Asn(3), Asn(4)] {
            cell.remove_holder(holder);
        }
        assert!(cell.outbound.is_none() && cell.out().is_none());
        cell.check().expect("back to a bare cell");
    }

    /// What `check` is for: a selection naming an entry that is not
    /// there, or not the one a fresh decision picks, and an outbound
    /// part kept while empty.
    #[test]
    fn cell_check_names_what_is_broken() {
        let good = cell_with(&[(1, route(&[1], 100)), (2, route(&[2, 8], 100))]);

        let mut dangling = good.clone();
        dangling.best = Selection::Neighbor(Asn(7));
        assert_eq!(dangling.check(), Err("selection names an absent entry"));
        dangling.best = Selection::Local;
        assert_eq!(dangling.check(), Err("selection names an absent entry"));

        let mut stale = good.clone();
        stale.best = Selection::Neighbor(Asn(2));
        assert_eq!(stale.check(), Err("selection differs from a from-scratch decision"));
        stale.best = Selection::None;
        assert_eq!(stale.check(), Err("selection differs from a from-scratch decision"));

        let mut hollow = good.clone();
        hollow.outbound = Some(Box::default());
        assert_eq!(hollow.check(), Err("empty outbound part retained"));
    }

    #[test]
    fn adj_in_implicit_withdraw() {
        let mut rib = AdjRibIn::new();
        rib.insert(Asn(1), route(&[1, 9], 100));
        rib.insert(Asn(1), route(&[1], 100)); // replaces
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(Asn(1), prefix()).unwrap().path_len(), 1);
    }

    #[test]
    fn adj_in_remove() {
        let mut rib = AdjRibIn::new();
        rib.insert(Asn(1), route(&[1], 100));
        assert!(rib.remove(Asn(1), prefix()));
        assert!(!rib.remove(Asn(1), prefix()));
        assert!(rib.is_empty());
        assert_eq!(rib.prefixes().count(), 0);
    }

    #[test]
    fn adj_in_candidates_deterministic_order() {
        let mut rib = AdjRibIn::new();
        rib.insert(Asn(5), route(&[5], 100));
        rib.insert(Asn(1), route(&[1], 100));
        rib.insert(Asn(3), route(&[3], 100));
        let c = rib.candidates(prefix());
        let order: Vec<u32> = c.iter().map(|c| c.learned_from.unwrap().0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn loc_rib_selection_and_change_detection() {
        let mut adj = AdjRibIn::new();
        let mut loc = LocRib::new();
        adj.insert(Asn(1), route(&[1, 8, 9], 100));
        assert!(loc.reselect(prefix(), &adj, None), "first selection is a change");
        assert_eq!(loc.get(prefix()).unwrap().route.path_len(), 3);

        // A better route arrives.
        adj.insert(Asn(2), route(&[2], 100));
        assert!(loc.reselect(prefix(), &adj, None));
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(2)));

        // Re-running with no change reports no change.
        assert!(!loc.reselect(prefix(), &adj, None));

        // Withdraw everything.
        adj.remove(Asn(1), prefix());
        adj.remove(Asn(2), prefix());
        assert!(loc.reselect(prefix(), &adj, None));
        assert!(loc.get(prefix()).is_none());
        assert!(loc.is_empty());
    }

    #[test]
    fn loc_rib_local_candidate_participates() {
        let adj = AdjRibIn::new();
        let mut loc = LocRib::new();
        let local = Candidate::local(route(&[], 100));
        assert!(loc.reselect(prefix(), &adj, Some(&local)));
        assert_eq!(loc.get(prefix()).unwrap().learned_from, None);
        assert_eq!(loc.len(), 1);
    }

    #[test]
    fn hinted_reselect_short_circuits_losing_arrivals() {
        let mut adj = AdjRibIn::new();
        let mut loc = LocRib::new();
        adj.insert(Asn(1), route(&[1], 100));
        assert!(loc.reselect(prefix(), &adj, None));

        // A longer-path arrival from another neighbor: O(1) rejection.
        adj.insert(Asn(2), route(&[2, 8, 9], 100));
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(2)));
        assert_eq!(out, ReselectOutcome::UnchangedShortCircuit);
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(1)));

        // Withdrawal of the losing route: O(1) no-change.
        adj.remove(Asn(2), prefix());
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(2)));
        assert_eq!(out, ReselectOutcome::UnchangedShortCircuit);

        // A winning arrival installs directly.
        adj.insert(Asn(3), route(&[3], 200));
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(3)));
        assert_eq!(out, ReselectOutcome::Changed);
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(3)));

        // The best route's own neighbor changing forces a rescan.
        adj.insert(Asn(3), route(&[3, 7, 8, 9], 100));
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(3)));
        assert_eq!(out, ReselectOutcome::Changed);
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(1)));
    }

    /// Whatever the hint, the selection must equal what a full scan
    /// produces — driven through a randomized insert/remove schedule.
    #[test]
    fn hinted_reselect_matches_full_scan() {
        use pvr_crypto::drbg::HmacDrbg;
        let mut rng = HmacDrbg::new(b"rib hint equivalence");
        let mut adj = AdjRibIn::new();
        let mut hinted = LocRib::new();
        let mut scanned = LocRib::new();
        let local = Candidate::local(route(&[], 100));
        // The local candidate's presence is fixed across the schedule:
        // the Neighbor hint promises only the named neighbor's entry
        // changed since the last selection.
        for step in 0..500 {
            let n = Asn(1 + rng.below(6) as u32);
            let local_opt = Some(&local);
            if rng.chance(0.3) {
                adj.remove(n, prefix());
            } else {
                let len = rng.below(5) as usize;
                let path: Vec<u32> = (0..=len).map(|h| n.0 * 10 + h as u32).collect();
                adj.insert(n, route(&path, 100 + 10 * rng.below(3) as u32));
            }
            let h = hinted.reselect_with_hint(prefix(), &adj, local_opt, ReselectHint::Neighbor(n));
            let s = scanned.reselect_with_hint(prefix(), &adj, local_opt, ReselectHint::Full);
            assert_eq!(h.changed(), s.changed(), "step {step}");
            assert_eq!(hinted.get(prefix()), scanned.get(prefix()), "step {step}");
        }
    }
}
