//! PVR at Internet scale (experiment E8's scenario as a demo).
//!
//! Builds an Internet-like AS topology (tier-1 clique, multihomed
//! tier-2, stubs originating prefixes), converges BGP with S-BGP
//! attestations over the deterministic simulator, then runs a PVR
//! round at a chosen transit AS using the routes *actually* in its
//! Adj-RIB-In — closing the loop between the routing substrate and the
//! verification protocol.
//!
//! Run with: `cargo run --release --example internet_scale`

use pvr::bgp::{internet_like, Asn, BgpRouter, InstantiateOptions, InternetParams};
use pvr::core::{Prover, RouterCast};
use pvr::netsim::RunLimits;

fn main() {
    println!("=== PVR on an Internet-like topology ===\n");

    let params = InternetParams {
        tier1: 4,
        tier2: 10,
        stubs: 30,
        t2_peering_prob: 0.25,
        ..InternetParams::default()
    };
    let topology = internet_like(params, 7);
    println!(
        "topology: {} ASes, {} relationship edges",
        topology.as_count(),
        topology.edge_count()
    );

    // Converge with S-BGP signing enabled.
    let mut net = topology.instantiate(InstantiateOptions {
        seed: 7,
        signed: true,
        key_bits: 512,
        ..Default::default()
    });
    let stop = net.converge(RunLimits::none());
    let stats = net.sim.stats().clone();
    println!("convergence: {stop:?} after {} events", stats.events);
    println!(
        "  updates delivered: {}, bytes on the wire: {} ({:.1} KiB)",
        stats.delivered,
        stats.bytes_sent,
        stats.bytes_sent as f64 / 1024.0
    );

    let mut failures = 0u64;
    let mut accepted = 0u64;
    for asn in net.ases().collect::<Vec<_>>() {
        let r = net.router(asn);
        failures += r.stats().attestation_failures;
        accepted += r.stats().routes_accepted;
    }
    println!("  routes accepted: {accepted}, attestation failures: {failures}");
    assert_eq!(failures, 0, "honest network must have no attestation failures");

    // Pick a tier-2 AS with several providers as "A" and one of its
    // customers as "B", and verify a real prefix decision.
    let a = Asn(100);
    let a_router: &BgpRouter = net.router(a);
    let prefix =
        a_router.selected_prefixes().into_iter().next().expect("A selected at least one prefix");
    // Inputs straight from A's Adj-RIB-In. B is a synthetic customer
    // for the demo round; in the promise, A commits to exporting the
    // shortest provider route.
    let neighbors: Vec<Asn> = topology.neighbor_roles(a).into_iter().map(|(n, _)| n).collect();
    let b = Asn(9999);
    let keys = net.keystore().expect("signed mode");
    let lifted = RouterCast::lift(a_router, keys, &neighbors, prefix, b, 1).expect("signed mode");
    let cast = lifted.cast();
    println!("\nPVR round at {a} for {prefix}: {} providers hold routes", cast.ns.len());
    for (&n, srs) in cast.inputs {
        println!("  {n} advertised {}", srs[0].route);
    }

    let prover = Prover::new(&cast, None, 7);
    let mut overhead = 0usize;
    for n in cast.neighbors() {
        let (root, disclosure) = prover.hand_out(&cast, n);
        if n == cast.ns[0] {
            println!("\nA committed: root = {}", root.root);
        }
        overhead += pvr::netsim::Payload::wire_size(&disclosure);
        let outcome = cast.verify(n, &disclosure);
        assert!(outcome.is_accept(), "{n}: {outcome:?}");
        println!("  {n} verified its share: accept");
    }

    println!("\nPVR overhead for this decision: {overhead} bytes of disclosures");
    println!("(compare: the BGP updates that built this RIB cost {} bytes)", stats.bytes_sent);
    println!("\n=== done ===");
}
