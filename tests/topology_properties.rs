//! Property tests for the `internet_like` topology generator: the
//! structural invariants every campaign and experiment silently relies
//! on — connectivity, no self-loops, and valley-free route propagation
//! under the Gao–Rexford roles the generator assigns.

use proptest::prelude::*;
use pvr::attack::CAMPAIGN_INTERNET;
use pvr::bgp::{internet_like, Asn, InstantiateOptions, InternetParams, Role, Topology};
use pvr::crypto::encoding::Wire;
use pvr::crypto::sha256;
use pvr::netsim::RunLimits;
use pvr_bench::e14_params;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// (local, neighbor) → the role `neighbor` plays relative to `local`.
fn role_map(t: &Topology) -> BTreeMap<(Asn, Asn), Role> {
    let mut map = BTreeMap::new();
    for local in t.ases() {
        for (neighbor, role) in t.neighbor_roles(local) {
            map.insert((local, neighbor), role);
        }
    }
    map
}

fn is_customer_role(role: &Role) -> bool {
    matches!(role, Role::Customer | Role::PartialTransitCustomer { .. })
}

/// Checks one received route for valley-freedom: every intermediate
/// hop's export must have been policy-legal given the roles, i.e. a
/// route learned from a peer or provider may only have been exported to
/// a customer.
fn path_is_valley_free(receiver: Asn, path: &[Asn], roles: &BTreeMap<(Asn, Asn), Role>) -> bool {
    let m = path.len();
    for i in 0..m.saturating_sub(1) {
        let exporter = path[i];
        let learned_from = path[i + 1];
        let target = if i == 0 { receiver } else { path[i - 1] };
        let src_role = match roles.get(&(exporter, learned_from)) {
            Some(r) => r,
            None => return false, // route claims a non-existent adjacency
        };
        let tgt_role = match roles.get(&(exporter, target)) {
            Some(r) => r,
            None => return false,
        };
        if !src_role.is_customer_learned() && !is_customer_role(tgt_role) {
            return false; // peer/provider-learned route exported uphill
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn internet_like_structural_invariants(
        seed in 0u64..10_000,
        tier1 in 2usize..4,
        tier2 in 2usize..6,
        stubs in 2usize..9,
    ) {
        let params = InternetParams { tier1, tier2, stubs, t2_peering_prob: 0.25, ..InternetParams::default() };
        let t = internet_like(params, seed);

        // Every declared AS class is present.
        prop_assert_eq!(t.as_count(), tier1 + tier2 + stubs);

        // No self-loops on any edge.
        let mut undirected: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        for e in t.edges() {
            let (a, b) = e.endpoints();
            prop_assert_ne!(a, b, "self-loop edge");
            undirected.entry(a).or_default().push(b);
            undirected.entry(b).or_default().push(a);
        }

        // Connectivity: every AS reaches every other over the
        // relationship graph.
        let start = t.ases().next().expect("non-empty topology");
        let mut seen = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(x) = queue.pop_front() {
            for &n in undirected.get(&x).into_iter().flatten() {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        prop_assert_eq!(seen.len(), t.as_count(), "topology is disconnected");

        // Every stub originates exactly one prefix and the origin table
        // covers it.
        let table = t.origin_table();
        prop_assert_eq!(table.len(), stubs);
    }

    #[test]
    fn internet_like_routes_are_valley_free(seed in 0u64..10_000) {
        let params = InternetParams { tier1: 2, tier2: 4, stubs: 6, t2_peering_prob: 0.3, ..InternetParams::default() };
        let t = internet_like(params, seed);
        let roles = role_map(&t);
        let mut net = t.instantiate(InstantiateOptions::default());
        net.converge(RunLimits::none());
        let mut checked = 0usize;
        for v in net.ases().collect::<Vec<_>>() {
            for (neighbor, _) in t.neighbor_roles(v) {
                for (_, route) in net.router(v).routes_from(neighbor) {
                    prop_assert!(
                        path_is_valley_free(v, route.path.asns(), &roles),
                        "valley route at {v} from {neighbor}: {:?}",
                        route.path
                    );
                    checked += 1;
                }
            }
        }
        prop_assert!(checked > 0, "no routes propagated at all");
    }
}

/// `internet_like`'s output, pinned as the SHA-256 of
/// `Topology::to_wire()`: the stock parameters at two seeds, two rungs
/// of the E14 ladder (where the tier-1 and tier-2 fan-out caps act on
/// hundreds of ASes), and the attack campaign's topology. A changed
/// digest means the generator draws different edges.
#[test]
fn internet_like_output_is_pinned() {
    let cases = [
        ("default, seed 14", InternetParams::default(), 14),
        ("default, seed 41", InternetParams::default(), 41),
        ("e14_params(500), seed 14", e14_params(500), 14),
        ("e14_params(3000), seed 14", e14_params(3000), 14),
        ("campaign, seed 12", CAMPAIGN_INTERNET, 12),
    ];
    let stale: Vec<String> = cases
        .iter()
        .zip(GENERATOR_GOLDEN)
        .filter_map(|(&(name, params, seed), pinned)| {
            let got = sha256(&internet_like(params, seed).to_wire()).to_hex();
            (got != pinned).then(|| format!("{name}: {got}"))
        })
        .collect();
    assert!(stale.is_empty(), "internet_like output moved:\n{}", stale.join("\n"));
}

/// SHA-256 of each case's `Topology::to_wire()`, in case order.
const GENERATOR_GOLDEN: [&str; 5] = [
    "e02dbeb91a585a24626309a10ed8f32305da0b8517c2b6c97b9642d975179680",
    "51cf7c0f0908aa995f43318143ad50409ec2149cc274811ed9bec43c66a4bb74",
    "88b51b2c715b7c1f721c161360e620ee53d1d9f2bb116894be4275a811dd8379",
    "65d943f098884e0f3697d2991016e24d7c7c12cd78b3a0aefd072ae4a8f820c5",
    "95aae85ff67e7e16ad33ee597116d57c9c57a99a6ece18dc03202817b721e636",
];
