//! Access-control policies over route-flow graphs.
//!
//! §2.2: "Visibility of operators and variables is governed by an access
//! control policy … a function α : N × V → {TRUE, FALSE} expresses
//! which networks are allowed to see which parts of the graph. If v is a
//! variable vertex, α(n, v) = TRUE means that network n is allowed to
//! learn the current value of v; if v is an operator vertex, n is
//! allowed to learn which function v computes."
//!
//! Following §3.7, we track *structure* visibility (the vertex's edges)
//! separately from *content* visibility (the value / operator type), so
//! "a neighbor may navigate parts of the graph it is not allowed to
//! see".

use crate::graph::{RouteFlowGraph, VarKind, VertexRef};
use pvr_bgp::Asn;
use std::collections::BTreeMap;

/// Visibility grant for one (network, vertex) pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Access {
    /// May learn the value (variable) or function (operator).
    pub content: bool,
    /// May learn the vertex's incoming/outgoing edges.
    pub structure: bool,
}

impl Access {
    /// No visibility.
    pub const NONE: Access = Access { content: false, structure: false };
    /// Structure only (can navigate past the vertex).
    pub const STRUCTURE: Access = Access { content: false, structure: true };
    /// Full visibility.
    pub const FULL: Access = Access { content: true, structure: true };
}

/// The α function, default-deny.
#[derive(Clone, Debug, Default)]
pub struct AccessPolicy {
    grants: BTreeMap<(Asn, VertexRef), Access>,
}

impl AccessPolicy {
    /// A default-deny policy.
    pub fn new() -> AccessPolicy {
        AccessPolicy::default()
    }

    /// Grants `network` the given access to `vertex`.
    pub fn grant(&mut self, network: Asn, vertex: VertexRef, access: Access) -> &mut Self {
        self.grants.insert((network, vertex), access);
        self
    }

    /// The effective access of `network` to `vertex`.
    pub fn access(&self, network: Asn, vertex: VertexRef) -> Access {
        self.grants.get(&(network, vertex)).copied().unwrap_or(Access::NONE)
    }

    /// α in the paper's boolean form (content visibility).
    pub fn allows(&self, network: Asn, vertex: VertexRef) -> bool {
        self.access(network, vertex).content
    }

    /// Builds the paper's §3 example policy for a graph:
    /// "α(N_i, r_i) = α(B, r_0) = TRUE, α(n, min) = TRUE for all
    /// networks n, and α(n, v) = FALSE otherwise."
    ///
    /// Concretely: every input's advertising neighbor sees its own input
    /// variable; every output's receiver sees that output; every
    /// operator's *type and wiring* are visible to all of `networks`
    /// (so each can statically check the promise); everything else is
    /// hidden.
    pub fn paper_example(graph: &RouteFlowGraph, networks: &[Asn]) -> AccessPolicy {
        let mut policy = AccessPolicy::new();
        for v in graph.vars() {
            match v.kind {
                VarKind::Input { neighbor } => {
                    policy.grant(neighbor, VertexRef::Var(v.id), Access::FULL);
                    // Everyone may navigate *past* inputs (structure only):
                    // they learn such a vertex exists on the graph, not
                    // its value — matching Figure 1 where the set of
                    // neighbors is public knowledge.
                    for &n in networks {
                        if n != neighbor {
                            policy.grant(n, VertexRef::Var(v.id), Access::STRUCTURE);
                        }
                    }
                }
                VarKind::Output { neighbor } => {
                    policy.grant(neighbor, VertexRef::Var(v.id), Access::FULL);
                    for &n in networks {
                        if n != neighbor {
                            policy.grant(n, VertexRef::Var(v.id), Access::STRUCTURE);
                        }
                    }
                }
                VarKind::Internal => {
                    for &n in networks {
                        policy.grant(n, VertexRef::Var(v.id), Access::STRUCTURE);
                    }
                }
            }
        }
        for op in graph.ops() {
            for &n in networks {
                policy.grant(n, VertexRef::Op(op.id), Access::FULL);
            }
        }
        policy
    }

    /// Iterates over all explicit grants.
    pub fn grants(&self) -> impl Iterator<Item = (Asn, VertexRef, Access)> + '_ {
        self.grants.iter().map(|(&(n, v), &a)| (n, v, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure1_graph;

    #[test]
    fn default_deny() {
        let p = AccessPolicy::new();
        assert_eq!(p.access(Asn(1), VertexRef::Var(crate::graph::VarId(0))), Access::NONE);
        assert!(!p.allows(Asn(1), VertexRef::Var(crate::graph::VarId(0))));
    }

    #[test]
    fn grant_and_query() {
        let mut p = AccessPolicy::new();
        let v = VertexRef::Var(crate::graph::VarId(3));
        p.grant(Asn(1), v, Access::STRUCTURE);
        assert!(!p.allows(Asn(1), v));
        assert!(p.access(Asn(1), v).structure);
        p.grant(Asn(1), v, Access::FULL);
        assert!(p.allows(Asn(1), v));
    }

    #[test]
    fn paper_example_matches_section3() {
        let ns = [Asn(1), Asn(2), Asn(3)];
        let b = Asn(200);
        let (g, inputs, out, min) = figure1_graph(&ns, b);
        let everyone: Vec<Asn> = ns.iter().copied().chain([b]).collect();
        let p = AccessPolicy::paper_example(&g, &everyone);

        // α(N_i, r_i) = TRUE.
        for (i, &n) in ns.iter().enumerate() {
            assert!(p.allows(n, VertexRef::Var(inputs[i])), "N{} sees r{}", i + 1, i + 1);
        }
        // α(B, r_o) = TRUE.
        assert!(p.allows(b, VertexRef::Var(out)));
        // α(n, min) = TRUE for all n.
        for &n in &everyone {
            assert!(p.allows(n, VertexRef::Op(min)));
        }
        // α(n, v) = FALSE otherwise: N1 must not see N2's input or the
        // output, and B must not see any input.
        assert!(!p.allows(ns[0], VertexRef::Var(inputs[1])));
        assert!(!p.allows(ns[0], VertexRef::Var(out)));
        for i in &inputs {
            assert!(!p.allows(b, VertexRef::Var(*i)));
        }
        // But everyone can navigate (structure).
        assert!(p.access(b, VertexRef::Var(inputs[0])).structure);
    }

    #[test]
    fn grants_iterator() {
        let ns = [Asn(1)];
        let (g, _, _, _) = figure1_graph(&ns, Asn(200));
        let p = AccessPolicy::paper_example(&g, &[Asn(1), Asn(200)]);
        assert!(p.grants().count() > 0);
    }
}
