//! Promises: what an AS guarantees its neighbor about route selection.
//!
//! §2 lists the promise ladder this module implements verbatim:
//!
//! 1. "I will give you the shortest route I receive."
//! 2. "I will give you the shortest route out of those received from a
//!    specific subset of neighbors."
//! 3. "I will give you a route no more than ε hops longer than my best
//!    route."
//! 4. "The route you get is no longer than what I tell anybody else."
//!
//! plus the existential promise of §3.2 and the Figure 2 promise ("I
//! will export some route via N2, …, Nk unless N1 provides a shorter
//! route").
//!
//! Each promise defines, "for each set of input routes the AS might
//! receive, some set of permissible routes that its output must be drawn
//! from. A violation occurs whenever an AS emits a route that was not in
//! its permitted set, given the inputs it had received" — implemented by
//! [`Promise::check`]. [`Promise::implemented_by`] is the §2.2 static
//! check ("based purely on static inspection of the route-flow graph"),
//! and [`Promise::verifiable_under`] is §4's minimum-access check.

use crate::access::AccessPolicy;
use crate::graph::{RouteFlowGraph, VarKind, VertexRef};
use crate::ops::OperatorKind;
use pvr_bgp::{Asn, Route};
use std::collections::{BTreeMap, BTreeSet};

/// A promise made by an AS to the neighbor receiving its output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Promise {
    /// §2 promise 1: the exported route is a shortest received route.
    ShortestOverall,
    /// §2 promise 2: shortest among routes from `subset`.
    ShortestOfSubset {
        /// The neighbors whose routes compete.
        subset: BTreeSet<Asn>,
    },
    /// §2 promise 3: within `epsilon` hops of the best received route.
    WithinHopsOfBest {
        /// Allowed slack in hops.
        epsilon: usize,
    },
    /// §2 promise 4: no longer than any route exported to other
    /// neighbors. (Interpretation: receiving *no* route while another
    /// neighbor receives one counts as a violation — "no route" is
    /// infinitely long.)
    NoLongerThanOthers,
    /// §3.2: a route is exported iff some neighbor in `subset` provided
    /// one, and the exported route is one of those provided.
    Existential {
        /// The neighbors whose routes count.
        subset: BTreeSet<Asn>,
    },
    /// Figure 2: export some route from `preferred` unless `fallback`
    /// provides a strictly shorter one.
    PreferUnlessShorter {
        /// N1 in the paper's example.
        fallback: Asn,
        /// N2..Nk.
        preferred: BTreeSet<Asn>,
    },
}

/// Why an output violated a promise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PromiseViolation {
    /// A route should have been exported, but none was.
    MissingOutput,
    /// A route was exported although none was permitted.
    UnexpectedOutput,
    /// The exported route is not among the received input routes.
    NotAnInputRoute,
    /// The exported route exceeds the permitted length.
    TooLong {
        /// Exported path length.
        got: usize,
        /// Maximum permitted length.
        bound: usize,
    },
    /// The exported route came from outside the permitted neighbor set.
    WrongSource,
    /// Another neighbor received a shorter route (promise 4).
    ShorterElsewhere {
        /// The favored neighbor.
        other: Asn,
        /// Our route's length (`usize::MAX` encodes "no route").
        got: usize,
        /// Their route's length.
        theirs: usize,
    },
}

impl std::fmt::Display for PromiseViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromiseViolation::MissingOutput => write!(f, "route withheld"),
            PromiseViolation::UnexpectedOutput => write!(f, "route exported but none permitted"),
            PromiseViolation::NotAnInputRoute => write!(f, "exported route was never received"),
            PromiseViolation::TooLong { got, bound } => {
                write!(f, "exported {got}-hop route, permitted at most {bound}")
            }
            PromiseViolation::WrongSource => write!(f, "route from outside the promised subset"),
            PromiseViolation::ShorterElsewhere { other, got, theirs } => {
                write!(f, "{other} got {theirs} hops, we got {got}")
            }
        }
    }
}

impl std::error::Error for PromiseViolation {}

/// Flattens the per-neighbor inputs into (neighbor, route) pairs,
/// restricted to `subset` if given.
fn flat_inputs<'a>(
    inputs: &'a BTreeMap<Asn, Vec<Route>>,
    subset: Option<&BTreeSet<Asn>>,
) -> Vec<(Asn, &'a Route)> {
    inputs
        .iter()
        .filter(|(n, _)| subset.is_none_or(|s| s.contains(n)))
        .flat_map(|(&n, rs)| rs.iter().map(move |r| (n, r)))
        .collect()
}

impl Promise {
    /// Checks the promise against what was actually received and
    /// exported. `outputs` maps each neighbor to the route exported to
    /// it (pre-prepend, i.e. the value of the output variable); `to` is
    /// the neighbor this promise was made to.
    pub fn check(
        &self,
        inputs: &BTreeMap<Asn, Vec<Route>>,
        outputs: &BTreeMap<Asn, Option<Route>>,
        to: Asn,
    ) -> Result<(), PromiseViolation> {
        let out = outputs.get(&to).cloned().flatten();
        match self {
            Promise::ShortestOverall => {
                Self::check_shortest(&flat_inputs(inputs, None), out.as_ref())
            }
            Promise::ShortestOfSubset { subset } => {
                Self::check_shortest(&flat_inputs(inputs, Some(subset)), out.as_ref())
            }
            Promise::WithinHopsOfBest { epsilon } => {
                let pool = flat_inputs(inputs, None);
                let min = pool.iter().map(|(_, r)| r.path_len()).min();
                match (min, out.as_ref()) {
                    (None, None) => Ok(()),
                    (None, Some(_)) => Err(PromiseViolation::UnexpectedOutput),
                    (Some(_), None) => Err(PromiseViolation::MissingOutput),
                    (Some(m), Some(r)) => {
                        if !pool.iter().any(|(_, i)| *i == r) {
                            return Err(PromiseViolation::NotAnInputRoute);
                        }
                        let bound = m.saturating_add(*epsilon);
                        if r.path_len() > bound {
                            return Err(PromiseViolation::TooLong { got: r.path_len(), bound });
                        }
                        Ok(())
                    }
                }
            }
            Promise::NoLongerThanOthers => {
                let my_len = out.as_ref().map(|r| r.path_len()).unwrap_or(usize::MAX);
                for (&other, other_out) in outputs {
                    if other == to {
                        continue;
                    }
                    if let Some(r) = other_out {
                        if r.path_len() < my_len {
                            return Err(PromiseViolation::ShorterElsewhere {
                                other,
                                got: my_len,
                                theirs: r.path_len(),
                            });
                        }
                    }
                }
                Ok(())
            }
            Promise::Existential { subset } => {
                let pool = flat_inputs(inputs, Some(subset));
                match out.as_ref() {
                    None => {
                        if pool.is_empty() {
                            Ok(())
                        } else {
                            Err(PromiseViolation::MissingOutput)
                        }
                    }
                    Some(r) => {
                        if pool.is_empty() {
                            Err(PromiseViolation::UnexpectedOutput)
                        } else if !pool.iter().any(|(_, i)| *i == r) {
                            Err(PromiseViolation::WrongSource)
                        } else {
                            Ok(())
                        }
                    }
                }
            }
            Promise::PreferUnlessShorter { fallback, preferred } => {
                let pref_pool = flat_inputs(inputs, Some(preferred));
                let fb_set: BTreeSet<Asn> = [*fallback].into();
                let fb_pool = flat_inputs(inputs, Some(&fb_set));
                let pref_min = pref_pool.iter().map(|(_, r)| r.path_len()).min();
                let fb_min = fb_pool.iter().map(|(_, r)| r.path_len()).min();
                match out.as_ref() {
                    None => {
                        if pref_pool.is_empty() && fb_pool.is_empty() {
                            Ok(())
                        } else {
                            Err(PromiseViolation::MissingOutput)
                        }
                    }
                    Some(r) => {
                        let from_pref = pref_pool.iter().any(|(_, i)| *i == r);
                        let from_fb = fb_pool.iter().any(|(_, i)| *i == r);
                        if !from_pref && !from_fb {
                            return Err(PromiseViolation::NotAnInputRoute);
                        }
                        match (pref_min, fb_min) {
                            // Fallback may be used only when strictly
                            // shorter than everything preferred (or when
                            // nothing preferred exists).
                            (Some(pm), _) if from_fb => {
                                if r.path_len() < pm {
                                    Ok(())
                                } else {
                                    Err(PromiseViolation::WrongSource)
                                }
                            }
                            _ if from_pref => Ok(()),
                            _ => Ok(()), // fallback with no preferred routes
                        }
                    }
                }
            }
        }
    }

    fn check_shortest(pool: &[(Asn, &Route)], out: Option<&Route>) -> Result<(), PromiseViolation> {
        let min = pool.iter().map(|(_, r)| r.path_len()).min();
        match (min, out) {
            (None, None) => Ok(()),
            (None, Some(_)) => Err(PromiseViolation::UnexpectedOutput),
            (Some(_), None) => Err(PromiseViolation::MissingOutput),
            (Some(m), Some(r)) => {
                if !pool.iter().any(|(_, i)| *i == r) {
                    return Err(PromiseViolation::NotAnInputRoute);
                }
                if r.path_len() > m {
                    return Err(PromiseViolation::TooLong { got: r.path_len(), bound: m });
                }
                Ok(())
            }
        }
    }

    /// §2.2 static check: does this graph's structure guarantee the
    /// promise to `to`? Conservative (sound, not complete): recognizes
    /// the canonical operator patterns and strictly-stronger ones (a
    /// `min` implements the existential promise, for example).
    pub fn implemented_by(&self, graph: &RouteFlowGraph, to: Asn) -> bool {
        let Some((out_var, _)) = graph.outputs().into_iter().find(|&(_, n)| n == to) else {
            return false;
        };
        let Some(writer) = graph.writer_of(out_var) else {
            return false;
        };
        let all_inputs: BTreeSet<Asn> = graph.inputs().into_iter().map(|(_, n)| n).collect();
        let input_var_of =
            |n: Asn| graph.inputs().into_iter().find(|&(_, asn)| asn == n).map(|(v, _)| v);
        let vars_cover = |vars: &[crate::graph::VarId], set: &BTreeSet<Asn>| {
            let covered: BTreeSet<Asn> = vars
                .iter()
                .filter_map(|v| match graph.var(*v).map(|vv| &vv.kind) {
                    Some(VarKind::Input { neighbor }) => Some(*neighbor),
                    _ => None,
                })
                .collect();
            covered == *set && vars.len() == set.len()
        };
        match self {
            Promise::ShortestOverall => {
                writer.kind == OperatorKind::MinPathLen && vars_cover(&writer.inputs, &all_inputs)
            }
            Promise::ShortestOfSubset { subset } => {
                writer.kind == OperatorKind::MinPathLen && vars_cover(&writer.inputs, subset)
            }
            Promise::WithinHopsOfBest { epsilon } => {
                // min over all inputs is the ε = 0 case, which implies any ε.
                if writer.kind == OperatorKind::MinPathLen
                    && vars_cover(&writer.inputs, &all_inputs)
                {
                    return true;
                }
                // PickOne over a WithinHops{e ≤ ε} over all inputs.
                if writer.kind == OperatorKind::PickOne && writer.inputs.len() == 1 {
                    if let Some(inner) = graph.writer_of(writer.inputs[0]) {
                        if let OperatorKind::WithinHops { epsilon: e } = inner.kind {
                            return e as usize <= *epsilon
                                && vars_cover(&inner.inputs, &all_inputs);
                        }
                    }
                }
                false
            }
            Promise::NoLongerThanOthers => {
                // Sound pattern: our output is the min over all inputs, so
                // no other output (drawn from the same inputs) can be
                // shorter.
                writer.kind == OperatorKind::MinPathLen && vars_cover(&writer.inputs, &all_inputs)
            }
            Promise::Existential { subset } => {
                // Any single-valued operator that emits iff an input
                // exists implies the existential promise.
                let emits_iff_nonempty = matches!(
                    writer.kind,
                    OperatorKind::Existential
                        | OperatorKind::MinPathLen
                        | OperatorKind::MaxLocalPref
                        | OperatorKind::PickOne
                );
                emits_iff_nonempty && vars_cover(&writer.inputs, subset)
            }
            Promise::PreferUnlessShorter { fallback, preferred } => {
                if writer.kind != OperatorKind::ShorterOf || writer.inputs.len() != 2 {
                    return false;
                }
                // First input: the fallback's input variable.
                if input_var_of(*fallback) != Some(writer.inputs[0]) {
                    return false;
                }
                // Second input: min/existential over the preferred set.
                let Some(inner) = graph.writer_of(writer.inputs[1]) else {
                    // Direct wiring to a single preferred input also works.
                    return preferred.len() == 1
                        && input_var_of(preferred.iter().next().copied().unwrap())
                            == Some(writer.inputs[1]);
                };
                matches!(
                    inner.kind,
                    OperatorKind::MinPathLen | OperatorKind::Existential | OperatorKind::PickOne
                ) && vars_cover(&inner.inputs, preferred)
            }
        }
    }

    /// §4 "Minimum access": do the access grants suffice for the
    /// neighbors to collectively verify this promise with the PVR
    /// protocol? Requires: each subset neighbor sees its own input
    /// variable, the receiver sees the output variable, and every
    /// participant can see the deciding operator.
    pub fn verifiable_under(&self, graph: &RouteFlowGraph, policy: &AccessPolicy, to: Asn) -> bool {
        let Some((out_var, _)) = graph.outputs().into_iter().find(|&(_, n)| n == to) else {
            return false;
        };
        let Some(writer) = graph.writer_of(out_var) else {
            return false;
        };
        if !policy.allows(to, VertexRef::Var(out_var)) {
            return false;
        }
        let participants: Vec<Asn> = match self {
            Promise::ShortestOfSubset { subset } | Promise::Existential { subset } => {
                subset.iter().copied().collect()
            }
            Promise::PreferUnlessShorter { fallback, preferred } => {
                preferred.iter().copied().chain([*fallback]).collect()
            }
            _ => graph.inputs().into_iter().map(|(_, n)| n).collect(),
        };
        for n in &participants {
            let Some((var, _)) = graph.inputs().into_iter().find(|&(_, asn)| asn == *n) else {
                return false;
            };
            if !policy.allows(*n, VertexRef::Var(var)) {
                return false;
            }
            if !policy.allows(*n, VertexRef::Op(writer.id)) {
                return false;
            }
        }
        policy.allows(to, VertexRef::Op(writer.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::graph::{figure1_graph, figure2_graph};
    use pvr_bgp::{AsPath, Prefix};

    fn route(path: &[u32]) -> Route {
        let mut r = Route::originate(Prefix::parse("10.0.0.0/8").unwrap());
        r.path = AsPath::from_slice(&path.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r
    }

    fn inputs(pairs: &[(u32, &[u32])]) -> BTreeMap<Asn, Vec<Route>> {
        let mut m: BTreeMap<Asn, Vec<Route>> = BTreeMap::new();
        for &(n, path) in pairs {
            m.entry(Asn(n)).or_default().push(route(path));
        }
        m
    }

    fn out_to(to: u32, r: Option<Route>) -> BTreeMap<Asn, Option<Route>> {
        [(Asn(to), r)].into()
    }

    const B: Asn = Asn(200);

    #[test]
    fn shortest_overall_accepts_min() {
        let p = Promise::ShortestOverall;
        let ins = inputs(&[(1, &[1, 9, 9]), (2, &[2, 9])]);
        assert!(p.check(&ins, &out_to(200, Some(route(&[2, 9]))), B).is_ok());
    }

    #[test]
    fn shortest_overall_rejects_longer() {
        let p = Promise::ShortestOverall;
        let ins = inputs(&[(1, &[1, 9, 9]), (2, &[2, 9])]);
        assert_eq!(
            p.check(&ins, &out_to(200, Some(route(&[1, 9, 9]))), B),
            Err(PromiseViolation::TooLong { got: 3, bound: 2 })
        );
    }

    #[test]
    fn shortest_overall_rejects_withheld_and_fabricated() {
        let p = Promise::ShortestOverall;
        let ins = inputs(&[(1, &[1, 9])]);
        assert_eq!(p.check(&ins, &out_to(200, None), B), Err(PromiseViolation::MissingOutput));
        assert_eq!(
            p.check(&ins, &out_to(200, Some(route(&[7]))), B),
            Err(PromiseViolation::NotAnInputRoute)
        );
        let empty = inputs(&[]);
        assert_eq!(
            p.check(&empty, &out_to(200, Some(route(&[1]))), B),
            Err(PromiseViolation::UnexpectedOutput)
        );
        assert!(p.check(&empty, &out_to(200, None), B).is_ok());
    }

    #[test]
    fn shortest_of_subset_ignores_outsiders() {
        let subset: BTreeSet<Asn> = [Asn(1), Asn(2)].into();
        let p = Promise::ShortestOfSubset { subset };
        // AS3 has a shorter route, but it is outside the subset.
        let ins = inputs(&[(1, &[1, 9, 9]), (2, &[2, 9]), (3, &[3])]);
        assert!(p.check(&ins, &out_to(200, Some(route(&[2, 9]))), B).is_ok());
        assert!(p.check(&ins, &out_to(200, Some(route(&[3]))), B).is_err());
    }

    #[test]
    fn within_hops_bounds() {
        let p = Promise::WithinHopsOfBest { epsilon: 1 };
        let ins = inputs(&[(1, &[1, 9]), (2, &[2, 8, 9]), (3, &[3, 7, 8, 9])]);
        assert!(p.check(&ins, &out_to(200, Some(route(&[1, 9]))), B).is_ok());
        assert!(p.check(&ins, &out_to(200, Some(route(&[2, 8, 9]))), B).is_ok());
        assert_eq!(
            p.check(&ins, &out_to(200, Some(route(&[3, 7, 8, 9]))), B),
            Err(PromiseViolation::TooLong { got: 4, bound: 3 })
        );
    }

    #[test]
    fn no_longer_than_others() {
        let p = Promise::NoLongerThanOthers;
        let ins = inputs(&[(1, &[1, 9])]);
        let mut outs = out_to(200, Some(route(&[1, 9])));
        outs.insert(Asn(300), Some(route(&[1, 9])));
        assert!(p.check(&ins, &outs, B).is_ok());
        // Another neighbor gets a shorter route.
        outs.insert(Asn(300), Some(route(&[5])));
        assert!(matches!(
            p.check(&ins, &outs, B),
            Err(PromiseViolation::ShorterElsewhere { other: Asn(300), .. })
        ));
        // We get nothing while they get something.
        let mut outs = out_to(200, None);
        outs.insert(Asn(300), Some(route(&[5])));
        assert!(p.check(&ins, &outs, B).is_err());
    }

    #[test]
    fn existential_both_directions() {
        let subset: BTreeSet<Asn> = [Asn(1), Asn(2)].into();
        let p = Promise::Existential { subset };
        let ins = inputs(&[(1, &[1, 9])]);
        assert!(p.check(&ins, &out_to(200, Some(route(&[1, 9]))), B).is_ok());
        assert_eq!(p.check(&ins, &out_to(200, None), B), Err(PromiseViolation::MissingOutput));
        let empty = inputs(&[(3, &[3])]); // only an outsider
        assert_eq!(
            p.check(&empty, &out_to(200, Some(route(&[3]))), B),
            Err(PromiseViolation::UnexpectedOutput)
        );
        assert!(p.check(&empty, &out_to(200, None), B).is_ok());
        // Route from outside the subset while subset has routes.
        let mixed = inputs(&[(1, &[1, 9]), (3, &[3])]);
        assert_eq!(
            p.check(&mixed, &out_to(200, Some(route(&[3]))), B),
            Err(PromiseViolation::WrongSource)
        );
    }

    #[test]
    fn prefer_unless_shorter_semantics() {
        let p =
            Promise::PreferUnlessShorter { fallback: Asn(1), preferred: [Asn(2), Asn(3)].into() };
        // N1 strictly shorter: exporting N1's route is fine.
        let ins = inputs(&[(1, &[1, 9]), (2, &[2, 8, 9])]);
        assert!(p.check(&ins, &out_to(200, Some(route(&[1, 9]))), B).is_ok());
        // N1 tie: must export the preferred side.
        let ins = inputs(&[(1, &[1, 9]), (2, &[2, 9])]);
        assert_eq!(
            p.check(&ins, &out_to(200, Some(route(&[1, 9]))), B),
            Err(PromiseViolation::WrongSource)
        );
        assert!(p.check(&ins, &out_to(200, Some(route(&[2, 9]))), B).is_ok());
        // Only the fallback has a route: exporting it is fine.
        let ins = inputs(&[(1, &[1, 9])]);
        assert!(p.check(&ins, &out_to(200, Some(route(&[1, 9]))), B).is_ok());
        // Nothing at all: silence is fine, fabrication is not.
        let ins = inputs(&[]);
        assert!(p.check(&ins, &out_to(200, None), B).is_ok());
        assert!(p.check(&ins, &out_to(200, Some(route(&[7]))), B).is_err());
    }

    #[test]
    fn static_check_figure1() {
        let ns = [Asn(1), Asn(2), Asn(3)];
        let (g, _, _, _) = figure1_graph(&ns, B);
        let subset: BTreeSet<Asn> = ns.iter().copied().collect();
        assert!(Promise::ShortestOverall.implemented_by(&g, B));
        assert!(Promise::ShortestOfSubset { subset: subset.clone() }.implemented_by(&g, B));
        // min implies the weaker promises.
        assert!(Promise::Existential { subset: subset.clone() }.implemented_by(&g, B));
        assert!(Promise::WithinHopsOfBest { epsilon: 2 }.implemented_by(&g, B));
        assert!(Promise::NoLongerThanOthers.implemented_by(&g, B));
        // Wrong subset does not check out.
        let wrong: BTreeSet<Asn> = [Asn(1)].into();
        assert!(!Promise::ShortestOfSubset { subset: wrong }.implemented_by(&g, B));
        // Wrong receiver.
        assert!(!Promise::ShortestOverall.implemented_by(&g, Asn(999)));
    }

    #[test]
    fn static_check_figure2() {
        let ns = [Asn(1), Asn(2), Asn(3)];
        let (g, _, _, _, _) = figure2_graph(&ns, B);
        let promise =
            Promise::PreferUnlessShorter { fallback: Asn(1), preferred: [Asn(2), Asn(3)].into() };
        assert!(promise.implemented_by(&g, B));
        // The figure 2 graph does NOT implement shortest-overall (N2's
        // longer route can win a tie).
        assert!(!Promise::ShortestOverall.implemented_by(&g, B));
        // Swapped roles fail.
        let swapped =
            Promise::PreferUnlessShorter { fallback: Asn(2), preferred: [Asn(1), Asn(3)].into() };
        assert!(!swapped.implemented_by(&g, B));
    }

    #[test]
    fn minimum_access_check() {
        let ns = [Asn(1), Asn(2)];
        let (g, inputs_v, out, _) = figure1_graph(&ns, B);
        let everyone: Vec<Asn> = ns.iter().copied().chain([B]).collect();
        let policy = AccessPolicy::paper_example(&g, &everyone);
        let promise = Promise::ShortestOfSubset { subset: ns.iter().copied().collect() };
        assert!(promise.verifiable_under(&g, &policy, B));

        // Strip B's access to the output: no longer verifiable.
        let mut blind = policy.clone();
        blind.grant(B, VertexRef::Var(out), Access::NONE);
        assert!(!promise.verifiable_under(&g, &blind, B));

        // Strip N1's access to its own input: no longer verifiable.
        let mut blind = policy.clone();
        blind.grant(Asn(1), VertexRef::Var(inputs_v[0]), Access::STRUCTURE);
        assert!(!promise.verifiable_under(&g, &blind, B));
    }
}
