//! Integration: BGP substrate → PVR protocol, end to end.
//!
//! Converges a signed BGP network on the simulator, lifts the attested
//! routes out of a transit AS's Adj-RIB-In, runs a PVR round on them,
//! and checks the verification outcomes — the full pipeline the paper
//! envisions, with no hand-built inputs.

use pvr::bgp::{
    figure1, internet_like, Asn, BgpNetwork, Figure1Cast, InstantiateOptions, InternetParams,
    Topology,
};
use pvr::core::{Misbehavior, RouterCast, Verdict};
use pvr::netsim::RunLimits;

const SEED: u64 = 5;

/// BGP's figure1, converged with S-BGP: chains of 0/1/2 intermediates
/// behind N1..N3.
fn converged_figure1() -> (BgpNetwork, Figure1Cast) {
    let (topology, cast) = figure1(&[0, 1, 2]);
    let mut net = topology.instantiate(InstantiateOptions {
        seed: SEED,
        signed: true,
        key_bits: 512,
        ..Default::default()
    });
    net.converge(RunLimits::none());
    (net, cast)
}

/// A's Adj-RIB-In (with chains) lifted into a PVR cast, B as receiver.
fn lift<'n>(net: &'n BgpNetwork, who: &Figure1Cast) -> RouterCast<'n> {
    let keys = net.keystore().expect("signed mode");
    RouterCast::lift(net.router(who.a), keys, &who.ns, who.prefix, who.b, 1).expect("signed mode")
}

#[test]
fn figure1_topology_feeds_pvr_round() {
    let (net, who) = converged_figure1();
    let lifted = lift(&net, &who);
    let cast = lifted.cast();
    assert_eq!((cast.a(), cast.ns), (who.a, &who.ns[..]));
    // Path lengths as built: chain + 2.
    for (i, n) in who.ns.iter().enumerate() {
        assert_eq!(cast.inputs[n][0].route.path_len(), i + 2);
    }

    let report = cast.run(None, SEED);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.outcomes.len(), who.ns.len() + 1);

    // The exported route in B's disclosure matches what A actually
    // advertised to B over BGP.
    let exported = cast.commit(SEED).export_route(who.b).unwrap();
    let advertised = net.router(who.a).advertised_to(who.b, who.prefix).unwrap();
    assert_eq!(exported.route.path, advertised.path);
}

/// The whole catalog on inputs BGP + S-BGP delivered, with
/// `tests/detection_matrix.rs`'s expectations: N1 holds the unique
/// minimum, so the victim-targeted variants are genuine violations.
#[test]
fn catalog_is_detected_on_lifted_routes() {
    let (net, who) = converged_figure1();
    let lifted = lift(&net, &who);
    let cast = lifted.cast();
    for behavior in Misbehavior::catalog(who.ns[0]) {
        let report = cast.run(Some(behavior.clone()), SEED);
        assert!(report.detected(), "{behavior:?}: no verifier noticed");
        match behavior {
            // Omissions are suspicion only.
            Misbehavior::RefuseReveal { .. } | Misbehavior::CorruptOpening { .. } => {
                assert!(!report.convicted(), "{behavior:?}");
            }
            // Commission faults convict, and no accusation is weak.
            _ => {
                assert!(report.convicted(), "{behavior:?}: no conviction");
                for (accuser, verdict) in &report.verdicts {
                    assert_eq!(*verdict, Verdict::Guilty, "{behavior:?}: accused by {accuser}");
                }
            }
        }
    }
}

#[test]
fn internet_like_rib_passes_pvr() {
    // Same pipeline on an Internet-like topology: every multi-provider
    // (prefix, AS) pair we can find must produce a clean PVR round.
    let params = InternetParams {
        tier1: 3,
        tier2: 6,
        stubs: 10,
        t2_peering_prob: 0.3,
        ..InternetParams::default()
    };
    let topology = internet_like(params, 17);
    let seed = 17;
    let mut net = topology.instantiate(InstantiateOptions {
        seed,
        signed: true,
        key_bits: 512,
        ..Default::default()
    });
    net.converge(RunLimits::none());
    let keys = net.keystore().unwrap();

    let mut rounds_checked = 0;
    for a in topology.ases().collect::<Vec<_>>() {
        if rounds_checked >= 3 {
            break;
        }
        let router = net.router(a);
        let neighbors: Vec<Asn> = topology.neighbor_roles(a).into_iter().map(|(n, _)| n).collect();
        for prefix in router.selected_prefixes() {
            // A synthetic receiver for the promise.
            let lifted = RouterCast::lift(router, keys, &neighbors, prefix, Asn(60000), 1).unwrap();
            let cast = lifted.cast();
            if cast.ns.len() < 2 {
                continue;
            }
            let report = cast.run(None, seed + rounds_checked);
            assert!(report.clean(), "AS{} prefix {prefix}: {:?}", a.0, report.outcomes);
            rounds_checked += 1;
            break;
        }
    }
    assert!(rounds_checked >= 1, "no multi-provider decision found to check");
}

#[test]
fn partial_transit_policy_flows_correct_routes() {
    // The paper's motivating partial-transit contract: A sells B transit
    // limited to EU-peer routes. Verify the substrate enforces it before
    // PVR even enters the picture.
    use pvr::bgp::Community;
    let eu = Community(65000, 1);
    let a = Asn(100);
    let b = Asn(200);
    let eu_peer = Asn(1);
    let us_peer = Asn(2);
    let eu_origin = Asn(11);
    let us_origin = Asn(22);
    let eu_prefix = pvr::bgp::Prefix::parse("10.1.0.0/16").unwrap();
    let us_prefix = pvr::bgp::Prefix::parse("10.2.0.0/16").unwrap();

    let mut t = Topology::new();
    t.peering(a, eu_peer)
        .peering(a, us_peer)
        .provider_customer(eu_peer, eu_origin)
        .provider_customer(us_peer, us_origin)
        .partial_transit(a, b, eu)
        .tag_region(a, eu_peer, eu)
        .originate(eu_origin, eu_prefix)
        .originate(us_origin, us_prefix);

    let mut net = t.instantiate(InstantiateOptions::default());
    net.converge(RunLimits::none());

    // B received the EU route but not the US route.
    let b_router = net.router(b);
    assert!(b_router.route_from(a, eu_prefix).is_some(), "EU route must flow");
    assert!(b_router.route_from(a, us_prefix).is_none(), "US route must not flow");
}
