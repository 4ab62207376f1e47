//! Operators: the units of route computation.
//!
//! §2.1: "a rule is an operation that takes some set of input routes and
//! emits a set of output routes (which may be a single route, or no
//! route at all) … We will refer to these pieces as operators, which
//! operate on variables — typically routes and sets of routes, but also
//! communities, AS paths, prefixes, etc."
//!
//! The two operators the paper constructs protocols for — existential
//! (§3.2) and minimum (§3.3) — are here, along with the wider set §4
//! calls for ("operators that evaluate communities or check for the
//! presence of particular ASes on the path") and the ε-threshold
//! operator needed by promise 3.

use pvr_bgp::{Asn, Community, Prefix, Route};

/// Canonical deterministic ordering of routes, used to break ties
/// whenever an operator must emit "some" single route. Orders by
/// (path length, path contents, prefix, local-pref desc, med, origin).
pub fn canonical_cmp(a: &Route, b: &Route) -> std::cmp::Ordering {
    (a.path_len(), a.path.asns(), a.prefix, std::cmp::Reverse(a.local_pref), a.med).cmp(&(
        b.path_len(),
        b.path.asns(),
        b.prefix,
        std::cmp::Reverse(b.local_pref),
        b.med,
    ))
}

/// Sorts and deduplicates a route set into canonical form.
pub fn canonicalize(mut routes: Vec<Route>) -> Vec<Route> {
    routes.sort_by(canonical_cmp);
    routes.dedup();
    routes
}

/// The kinds of operators a route-flow graph can contain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OperatorKind {
    /// §3.2: emits one route (canonically chosen) iff any input route
    /// exists.
    Existential,
    /// §3.3: emits one route of minimal AS-path length.
    MinPathLen,
    /// Emits one route of maximal LOCAL_PREF (ties broken canonically).
    MaxLocalPref,
    /// Set-valued: keeps routes that carry (or lack) a community.
    FilterCommunity {
        /// The community to test.
        community: Community,
        /// `true` keeps routes with the community, `false` keeps those
        /// without it.
        keep_if_present: bool,
    },
    /// Set-valued: keeps routes whose path does (or does not) contain an
    /// AS.
    FilterAsPresence {
        /// The AS to test for.
        asn: Asn,
        /// `true` keeps routes through `asn`, `false` avoids it.
        keep_if_present: bool,
    },
    /// Set-valued: keeps routes whose prefix is covered by `cover`.
    FilterPrefix {
        /// The covering prefix.
        cover: Prefix,
    },
    /// Set-valued: union of all inputs.
    Union,
    /// Set-valued: routes within `epsilon` hops of the shortest input
    /// (the permitted set of promise 3).
    WithinHops {
        /// Allowed slack above the minimum path length; `u32` because
        /// that is what the committed encoding carries.
        epsilon: u32,
    },
    /// Emits the canonically-first route of the input set (used to
    /// collapse a set-valued operator into an exportable single route).
    PickOne,
    /// Two-input choice: emits the second input's best route unless the
    /// first input offers a strictly shorter one (the Figure 2 operator:
    /// "I will export some route via N2..Nk unless N1 provides a shorter
    /// route"). Input order: `[fallback, preferred]`.
    ShorterOf,
}

impl OperatorKind {
    /// A stable name for display and for the MHT payload encoding.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::Existential => "exists",
            OperatorKind::MinPathLen => "min-path-len",
            OperatorKind::MaxLocalPref => "max-local-pref",
            OperatorKind::FilterCommunity { .. } => "filter-community",
            OperatorKind::FilterAsPresence { .. } => "filter-as",
            OperatorKind::FilterPrefix { .. } => "filter-prefix",
            OperatorKind::Union => "union",
            OperatorKind::WithinHops { .. } => "within-hops",
            OperatorKind::PickOne => "pick-one",
            OperatorKind::ShorterOf => "shorter-of",
        }
    }

    /// The number of input variables the operator requires, if fixed.
    pub fn arity(&self) -> Option<usize> {
        match self {
            OperatorKind::ShorterOf => Some(2),
            _ => None,
        }
    }

    /// Applies the operator to its input route sets.
    pub fn apply(&self, inputs: &[Vec<Route>]) -> Vec<Route> {
        let all = || inputs.iter().flatten().cloned();
        match self {
            OperatorKind::Existential | OperatorKind::PickOne => {
                canonicalize(all().collect()).into_iter().take(1).collect()
            }
            OperatorKind::MinPathLen => {
                let routes = canonicalize(all().collect());
                // canonical order sorts by path length first, so the head
                // is a minimal route.
                routes.into_iter().take(1).collect()
            }
            OperatorKind::MaxLocalPref => {
                let routes = canonicalize(all().collect());
                let best = routes.iter().map(|r| r.local_pref).max();
                match best {
                    None => Vec::new(),
                    Some(lp) => routes.into_iter().filter(|r| r.local_pref == lp).take(1).collect(),
                }
            }
            OperatorKind::FilterCommunity { community, keep_if_present } => canonicalize(
                all().filter(|r| r.has_community(*community) == *keep_if_present).collect(),
            ),
            OperatorKind::FilterAsPresence { asn, keep_if_present } => {
                canonicalize(all().filter(|r| r.path.contains(*asn) == *keep_if_present).collect())
            }
            OperatorKind::FilterPrefix { cover } => {
                canonicalize(all().filter(|r| cover.covers(&r.prefix)).collect())
            }
            OperatorKind::Union => canonicalize(all().collect()),
            OperatorKind::WithinHops { epsilon } => {
                let routes = canonicalize(all().collect());
                let min = routes.first().map(|r| r.path_len());
                match min {
                    None => Vec::new(),
                    Some(m) => {
                        let bound = m.saturating_add(*epsilon as usize);
                        routes.into_iter().filter(|r| r.path_len() <= bound).collect()
                    }
                }
            }
            OperatorKind::ShorterOf => {
                debug_assert_eq!(inputs.len(), 2, "ShorterOf takes [fallback, preferred]");
                let fallback = canonicalize(inputs.first().cloned().unwrap_or_default());
                let preferred = canonicalize(inputs.get(1).cloned().unwrap_or_default());
                match (fallback.first(), preferred.first()) {
                    (None, None) => Vec::new(),
                    (Some(f), None) => vec![f.clone()],
                    (None, Some(p)) => vec![p.clone()],
                    (Some(f), Some(p)) => {
                        // Preferred side wins unless fallback is strictly
                        // shorter.
                        if f.path_len() < p.path_len() {
                            vec![f.clone()]
                        } else {
                            vec![p.clone()]
                        }
                    }
                }
            }
        }
    }
}

pvr_crypto::wire_enum!(OperatorKind {
    0 => Existential,
    1 => MinPathLen,
    2 => MaxLocalPref,
    3 => FilterCommunity { community, keep_if_present },
    4 => FilterAsPresence { asn, keep_if_present },
    5 => FilterPrefix { cover },
    6 => Union,
    7 => WithinHops { epsilon },
    8 => PickOne,
    9 => ShorterOf,
});

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_bgp::AsPath;
    use pvr_crypto::Wire;

    fn route(prefix: &str, path: &[u32]) -> Route {
        let mut r = Route::originate(Prefix::parse(prefix).unwrap());
        r.path = AsPath::from_slice(&path.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r
    }

    #[test]
    fn existential_emits_one_iff_any() {
        let op = OperatorKind::Existential;
        assert!(op.apply(&[vec![]]).is_empty());
        let out = op.apply(&[vec![route("10.0.0.0/8", &[1, 2])], vec![route("10.0.0.0/8", &[3])]]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn min_path_len_selects_shortest() {
        let op = OperatorKind::MinPathLen;
        let out = op.apply(&[
            vec![route("10.0.0.0/8", &[1, 2, 3])],
            vec![route("10.0.0.0/8", &[4, 5])],
            vec![route("10.0.0.0/8", &[6, 7, 8, 9])],
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].path_len(), 2);
    }

    #[test]
    fn min_path_len_breaks_ties_deterministically() {
        let op = OperatorKind::MinPathLen;
        let a = route("10.0.0.0/8", &[9, 1]);
        let b = route("10.0.0.0/8", &[2, 1]);
        let out1 = op.apply(&[vec![a.clone()], vec![b.clone()]]);
        let out2 = op.apply(&[vec![b], vec![a]]);
        assert_eq!(out1, out2);
        assert_eq!(out1[0].path.asns()[0], Asn(2), "lexicographically first path wins");
    }

    #[test]
    fn max_local_pref() {
        let op = OperatorKind::MaxLocalPref;
        let mut a = route("10.0.0.0/8", &[1]);
        a.local_pref = 300;
        let b = route("10.0.0.0/8", &[2]);
        let out = op.apply(&[vec![a.clone(), b]]);
        assert_eq!(out, vec![a]);
        assert!(op.apply(&[vec![]]).is_empty());
    }

    #[test]
    fn community_filter_both_polarities() {
        let c = Community(65000, 1);
        let tagged = route("10.0.0.0/8", &[1]).with_community(c);
        let plain = route("10.0.0.0/8", &[2]);
        let keep = OperatorKind::FilterCommunity { community: c, keep_if_present: true };
        let drop = OperatorKind::FilterCommunity { community: c, keep_if_present: false };
        assert_eq!(keep.apply(&[vec![tagged.clone(), plain.clone()]]), vec![tagged.clone()]);
        assert_eq!(drop.apply(&[vec![tagged, plain.clone()]]), vec![plain]);
    }

    #[test]
    fn as_presence_filter() {
        let via3 = route("10.0.0.0/8", &[1, 3]);
        let clean = route("10.0.0.0/8", &[2, 4]);
        let avoid = OperatorKind::FilterAsPresence { asn: Asn(3), keep_if_present: false };
        assert_eq!(avoid.apply(&[vec![via3.clone(), clean.clone()]]), vec![clean]);
        let require = OperatorKind::FilterAsPresence { asn: Asn(3), keep_if_present: true };
        assert_eq!(require.apply(&[vec![via3.clone(), route("10.0.0.0/8", &[2, 4])]]), vec![via3]);
    }

    #[test]
    fn prefix_filter() {
        let in10 = route("10.1.0.0/16", &[1]);
        let out10 = route("192.168.0.0/16", &[2]);
        let op = OperatorKind::FilterPrefix { cover: Prefix::parse("10.0.0.0/8").unwrap() };
        assert_eq!(op.apply(&[vec![in10.clone(), out10]]), vec![in10]);
    }

    #[test]
    fn union_merges_and_dedups() {
        let a = route("10.0.0.0/8", &[1]);
        let b = route("10.0.0.0/8", &[2]);
        let op = OperatorKind::Union;
        let out = op.apply(&[vec![a.clone(), b.clone()], vec![a.clone()]]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn within_hops_epsilon() {
        let r2 = route("10.0.0.0/8", &[1, 2]);
        let r3 = route("10.0.0.0/8", &[3, 4, 5]);
        let r5 = route("10.0.0.0/8", &[4, 5, 6, 7, 8]);
        let op = OperatorKind::WithinHops { epsilon: 1 };
        let out = op.apply(&[vec![r2.clone(), r3.clone(), r5]]);
        assert_eq!(out, vec![r2, r3]);
        assert!(op.apply(&[vec![]]).is_empty());
        // epsilon 0 is exactly the min set.
        let op0 = OperatorKind::WithinHops { epsilon: 0 };
        let out = op0.apply(&[vec![route("10.0.0.0/8", &[1]), route("10.0.0.0/8", &[2, 3])]]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn shorter_of_figure2_semantics() {
        let op = OperatorKind::ShorterOf;
        let n1_short = route("10.0.0.0/8", &[1]);
        let n1_long = route("10.0.0.0/8", &[1, 8, 9]);
        let rest = route("10.0.0.0/8", &[2, 3]);
        // N1 strictly shorter → N1 wins.
        assert_eq!(op.apply(&[vec![n1_short.clone()], vec![rest.clone()]]), vec![n1_short]);
        // Tie or longer → preferred (N2..Nk) side wins.
        let n1_tie = route("10.0.0.0/8", &[1, 9]);
        assert_eq!(op.apply(&[vec![n1_tie], vec![rest.clone()]]), vec![rest.clone()]);
        assert_eq!(op.apply(&[vec![n1_long], vec![rest.clone()]]), vec![rest.clone()]);
        // Either side empty → other side.
        assert_eq!(op.apply(&[vec![], vec![rest.clone()]]), vec![rest.clone()]);
        assert_eq!(op.apply(&[vec![rest.clone()], vec![]]), vec![rest]);
        assert!(op.apply(&[vec![], vec![]]).is_empty());
    }

    #[test]
    fn pick_one_is_canonical_head() {
        let a = route("10.0.0.0/8", &[5]);
        let b = route("10.0.0.0/8", &[2, 3]);
        let op = OperatorKind::PickOne;
        assert_eq!(op.apply(&[vec![b, a.clone()]]), vec![a]);
    }

    #[test]
    fn arity_constraints() {
        assert_eq!(OperatorKind::ShorterOf.arity(), Some(2));
        assert_eq!(OperatorKind::Union.arity(), None);
    }

    #[test]
    fn wire_round_trip_all_kinds() {
        let kinds = vec![
            OperatorKind::Existential,
            OperatorKind::MinPathLen,
            OperatorKind::MaxLocalPref,
            OperatorKind::FilterCommunity { community: Community(1, 2), keep_if_present: true },
            OperatorKind::FilterAsPresence { asn: Asn(3), keep_if_present: false },
            OperatorKind::FilterPrefix { cover: Prefix::parse("10.0.0.0/8").unwrap() },
            OperatorKind::Union,
            OperatorKind::WithinHops { epsilon: 2 },
            OperatorKind::PickOne,
            OperatorKind::ShorterOf,
        ];
        for k in kinds {
            let back: OperatorKind = pvr_crypto::decode_exact(&k.to_wire()).unwrap();
            assert_eq!(back, k);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn within_hops_commits_the_epsilon_it_evaluates() {
        // ε is `u32` end to end, so the committed bytes carry exactly
        // the ε the operator evaluates: the largest one round-trips …
        let op = OperatorKind::WithinHops { epsilon: u32::MAX };
        assert_eq!(op.to_wire(), [&[7u8][..], &[0xff; 4]].concat());
        assert_eq!(pvr_crypto::decode_exact::<OperatorKind>(&op.to_wire()), Ok(op.clone()));
        // … and evaluates without overflowing `min + ε`.
        let routes = vec![route("10.0.0.0/8", &[1, 2]), route("10.0.0.0/8", &[3, 4, 5, 6])];
        assert_eq!(op.apply(std::slice::from_ref(&routes)), routes);
    }

    #[test]
    fn canonicalize_dedups_and_orders() {
        let a = route("10.0.0.0/8", &[1]);
        let b = route("10.0.0.0/8", &[2, 3]);
        let out = canonicalize(vec![b.clone(), a.clone(), a.clone()]);
        assert_eq!(out, vec![a, b]);
    }
}
