//! Test/bench harness: builds the paper's Figure 1 cast directly
//! (identities, attestation chains, graph) without running a network
//! simulation — the inputs are exactly what BGP + S-BGP would deliver
//! to A, so protocol-level code can be exercised and benchmarked in
//! isolation. [`Figure1Bed::cast`] is what [`crate::round`] runs on.

use crate::round::Cast;
use crate::session::{Committer, PvrParams, RoundContext};
use pvr_bgp::sbgp::SignedRoute;
use pvr_bgp::{Asn, Prefix, Route};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_rfg::{figure1_graph, figure2_graph, RouteFlowGraph, VarId};
use std::collections::BTreeMap;

/// RSA modulus size used by harness identities. 512 keeps unit tests
/// fast; the benchmark's `pvr_rounds` workload builds its beds at 1024.
pub const HARNESS_KEY_BITS: usize = 512;

/// The Figure 1 (and Figure 2) cast with ready-made attested inputs.
pub struct Figure1Bed {
    /// Network A (the committer).
    pub a: Asn,
    /// Network B (the promise receiver).
    pub b: Asn,
    /// The providers N_1..N_k.
    pub ns: Vec<Asn>,
    /// The contested prefix.
    pub prefix: Prefix,
    /// Public keys of every participant (incl. chain ASes).
    pub keys: KeyStore,
    /// Signing identities of every participant.
    pub identities: BTreeMap<Asn, Identity>,
    /// What each N_i advertised to A, with full attestation chains.
    pub inputs: BTreeMap<Asn, Vec<SignedRoute>>,
    /// The route-flow graph (Figure 1 min graph by default).
    pub graph: RouteFlowGraph,
    /// Input variable ids, in N order.
    pub input_vars: Vec<VarId>,
    /// The output variable id.
    pub output_var: VarId,
    /// Round identifier.
    pub round: RoundContext,
    /// Protocol parameters.
    pub params: PvrParams,
    /// The seed everything was derived from.
    pub seed: u64,
}

impl Figure1Bed {
    /// Builds the bed. `path_lens[i]` is the AS-path length of the route
    /// `N_{i+1}` advertises to A (1 = N_i originates the prefix itself;
    /// L > 1 adds a chain of L−1 ASes behind it). All lengths must be
    /// ≥ 1 and ≤ `PvrParams::default().max_path_len`.
    pub fn build(path_lens: &[usize], seed: u64) -> Figure1Bed {
        Self::build_with_graph(path_lens, seed, GraphShape::Figure1)
    }

    /// Builds the bed with the Figure 2 graph ("route via N2..Nk unless
    /// N1 provides a shorter route") instead of the plain min graph.
    pub fn build_figure2(path_lens: &[usize], seed: u64) -> Figure1Bed {
        assert!(path_lens.len() >= 2, "figure 2 needs at least two providers");
        Self::build_with_graph(path_lens, seed, GraphShape::Figure2)
    }

    fn build_with_graph(path_lens: &[usize], seed: u64, shape: GraphShape) -> Figure1Bed {
        assert!(!path_lens.is_empty());
        let params = PvrParams::default();
        assert!(
            path_lens.iter().all(|&l| l >= 1 && l <= params.max_path_len),
            "path lengths must be in 1..=max_path_len"
        );
        let mut rng = HmacDrbg::from_u64_labeled(seed, "figure1-bed");
        let a = Asn(100);
        let b = Asn(200);
        let ns: Vec<Asn> = (0..path_lens.len()).map(|i| Asn(1 + i as u32)).collect();
        let prefix = Prefix::parse("10.0.0.0/8").unwrap();

        let mut identities = BTreeMap::new();
        let mut keys = KeyStore::new();
        let identity_of = |asn: Asn,
                           rng: &mut HmacDrbg,
                           identities: &mut BTreeMap<Asn, Identity>,
                           keys: &mut KeyStore| {
            let id = Identity::generate(asn.principal(), HARNESS_KEY_BITS, rng);
            keys.register_identity(&id);
            identities.insert(asn, id.clone());
            id
        };
        for &asn in ns.iter().chain([&a, &b]) {
            identity_of(asn, &mut rng, &mut identities, &mut keys);
        }

        // Build each N_i's advertised route with its attestation chain.
        let mut inputs: BTreeMap<Asn, Vec<SignedRoute>> = BTreeMap::new();
        for (i, (&n, &len)) in ns.iter().zip(path_lens).enumerate() {
            // Chain ASes behind N_i, bottom (originator) first.
            let chain: Vec<Asn> =
                (0..len - 1).rev().map(|j| Asn(1000 + 100 * i as u32 + j as u32)).collect();
            for &c in &chain {
                identity_of(c, &mut rng, &mut identities, &mut keys);
            }
            // Hop sequence from originator up to A.
            let hops: Vec<Asn> = chain.into_iter().chain([n]).collect();
            let mut sr: Option<SignedRoute> = None;
            for (j, &hop) in hops.iter().enumerate() {
                let next = hops.get(j + 1).copied().unwrap_or(a);
                let identity = &identities[&hop];
                sr = Some(match sr {
                    None => {
                        let mut r = Route::originate(prefix);
                        r.path = r.path.prepend(hop);
                        SignedRoute::originate(identity, r, next)
                    }
                    Some(prev) => {
                        let r = prev.route.clone().propagated_by(hop);
                        SignedRoute::extend(&prev, identity, r, next)
                    }
                });
            }
            let sr = sr.expect("at least one hop");
            debug_assert_eq!(sr.route.path_len(), len);
            inputs.insert(n, vec![sr]);
        }

        let (graph, input_vars, output_var) = match shape {
            GraphShape::Figure1 => {
                let (g, iv, ov, _) = figure1_graph(&ns, b);
                (g, iv, ov)
            }
            GraphShape::Figure2 => {
                let (g, iv, ov, _, _) = figure2_graph(&ns, b);
                (g, iv, ov)
            }
        };

        Figure1Bed {
            a,
            b,
            ns,
            prefix,
            keys,
            identities,
            inputs,
            graph,
            input_vars,
            output_var,
            round: RoundContext { prefix, epoch: 1 },
            params,
            seed,
        }
    }

    /// A's identity.
    pub fn a_identity(&self) -> &Identity {
        &self.identities[&self.a]
    }

    /// The round's cast, borrowed from this bed.
    pub fn cast(&self) -> Cast<'_> {
        Cast {
            identity: self.a_identity(),
            b: self.b,
            ns: &self.ns,
            round: &self.round,
            params: self.params,
            graph: &self.graph,
            inputs: &self.inputs,
            keys: &self.keys,
        }
    }

    /// Builds an honest committer for this round.
    pub fn honest_committer(&self) -> Committer {
        self.cast().commit(self.seed)
    }

    /// The route `n` advertised to A (the harness builds exactly one per
    /// provider).
    pub fn input_of(&self, n: Asn) -> &SignedRoute {
        &self.inputs[&n][0]
    }

    /// The true shortest input length (ground truth for assertions).
    pub fn true_min(&self) -> usize {
        self.inputs.values().flatten().map(|sr| sr.route.path_len()).min().expect("nonempty inputs")
    }
}

enum GraphShape {
    Figure1,
    Figure2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bed_builds_valid_chains() {
        let bed = Figure1Bed::build(&[1, 3, 2], 7);
        assert_eq!(bed.ns.len(), 3);
        for (i, &n) in bed.ns.iter().enumerate() {
            let sr = bed.input_of(n);
            assert_eq!(sr.route.path_len(), [1, 3, 2][i]);
            assert_eq!(sr.route.path.first_as(), Some(n));
            // The chain verifies as delivered to A.
            assert!(sr.verify(bed.a, &bed.keys).is_ok(), "chain {i}");
        }
        assert_eq!(bed.true_min(), 1);
    }

    #[test]
    fn bed_is_deterministic() {
        let b1 = Figure1Bed::build(&[2, 2], 9);
        let b2 = Figure1Bed::build(&[2, 2], 9);
        assert_eq!(b1.input_of(Asn(1)), b2.input_of(Asn(1)));
    }

    #[test]
    fn figure2_bed_uses_shorter_of_graph() {
        let bed = Figure1Bed::build_figure2(&[2, 3], 11);
        // The figure-2 graph has an internal variable; figure-1 does not.
        assert!(bed.graph.vars().count() > bed.ns.len() + 1);
    }

    #[test]
    #[should_panic(expected = "path lengths")]
    fn zero_length_rejected() {
        Figure1Bed::build(&[0], 1);
    }
}
