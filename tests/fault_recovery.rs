//! The fault-injection layer's recovery contract: after every fault in
//! a schedule has fired and the network re-converges, RIB fingerprints
//! equal a never-faulted baseline's — at any shard count. Teardowns flush
//! Adj-RIBs and flood withdraws, recoveries re-announce the full
//! Loc-RIB, and in-flight updates from torn sessions are discarded, so
//! no fault schedule may leak, lose, or fabricate routing state once it
//! ends. Exercised over random topologies and random fault schedules
//! (link flaps and session resets — the faults whose semantics promise
//! full recovery), with and without MRAI batching and route-flap
//! dampening in the path.

use proptest::prelude::*;
use pvr::bgp::{
    internet_like, Asn, BgpRouter, Candidate, DampeningPolicy, Edge, InstantiateOptions,
    InternetParams, Prefix, Topology,
};
use pvr::crypto::drbg::HmacDrbg;
use pvr::netsim::{Fault, FaultPlan, NodeId, RunLimits, SimDuration, SimTime, StopReason};

/// The converged Loc-RIB, fully materialized: every selected prefix with
/// its winning candidate (route attributes + learned-from neighbor).
fn rib_fingerprint(router: &BgpRouter) -> Vec<(Prefix, Candidate)> {
    router
        .selected_prefixes()
        .into_iter()
        .map(|p| {
            (p, router.best_route(p).expect("selected prefix has a best route").to_candidate())
        })
        .collect()
}

/// The two endpoints of a topology edge, whichever flavor.
fn endpoints(edge: &Edge) -> (Asn, Asn) {
    match *edge {
        Edge::ProviderCustomer { provider, customer } => (provider, customer),
        Edge::Peering(a, b) => (a, b),
        Edge::PartialTransit { provider, customer, .. } => (provider, customer),
    }
}

/// A seeded random fault schedule over real topology links: 1–4 faults,
/// each either a link flap burst or a session reset, all inside
/// [200 ms, 1.2 s]. Down windows always exceed the 10 ms link latency,
/// so every in-flight delivery from before a teardown lands inside the
/// down window (where the receiver discards it) — the precondition for
/// exact recovery.
fn random_fault_plan(topology: &Topology, node_of: &dyn Fn(Asn) -> NodeId, seed: u64) -> FaultPlan {
    let edges = topology.edges();
    let mut rng = HmacDrbg::from_u64_labeled(seed, "fault-recovery plan");
    let mut plan = FaultPlan::new();
    let faults = 1 + rng.below(4);
    for _ in 0..faults {
        let (a, b) = endpoints(&edges[rng.index(edges.len())]);
        let (na, nb) = (node_of(a), node_of(b));
        let start = SimTime::ZERO + SimDuration::from_millis(200 + rng.below(800));
        if rng.chance(0.5) {
            let down_for = SimDuration::from_millis(15 + rng.below(30));
            let count = 1 + rng.below(3) as usize;
            plan.flap_link(na, nb, start, down_for, SimDuration::from_millis(60), count);
        } else {
            plan.push(start, Fault::SessionReset { a: na, b: nb });
        }
    }
    plan
}

/// Converges `topology` three times — never-faulted 1-shard baseline,
/// faulted at 1 shard, faulted at `shards` — and asserts both faulted
/// runs recover to exactly the baseline RIBs, and agree with each other
/// on every simulator counter.
fn assert_recovers_to_baseline(
    topology: &Topology,
    options: InstantiateOptions,
    shards: usize,
    fault_seed: u64,
) {
    let mut baseline_net = topology.instantiate(options);
    assert_eq!(baseline_net.converge(RunLimits::none()), StopReason::Quiescent);
    let baseline: Vec<(Asn, Vec<(Prefix, Candidate)>)> =
        topology.ases().map(|a| (a, rib_fingerprint(baseline_net.router(a)))).collect();
    drop(baseline_net);

    let mut one = topology.instantiate(options);
    let plan = random_fault_plan(topology, &|a| one.node_of(a), fault_seed);
    assert!(!plan.is_empty());
    one.install_fault_plan(plan);
    assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);

    let mut many = topology.instantiate_sharded(options, shards);
    let plan = random_fault_plan(topology, &|a| many.node_of(a), fault_seed);
    many.install_fault_plan(plan);
    assert_eq!(many.converge(RunLimits::none()), StopReason::Quiescent);

    // The shard counts agree with each other on the whole faulted run...
    assert_eq!(one.sim.stats(), many.sim.stats(), "faulted runs diverge at {shards} shards");
    assert!(one.sim.stats().link_down + one.sim.stats().session_resets > 0);

    // ...and both recover to exactly the never-faulted state.
    for (asn, base) in &baseline {
        assert_eq!(
            &rib_fingerprint(one.router(*asn)),
            base,
            "1-shard AS{} RIB != never-faulted baseline (fault seed {fault_seed})",
            asn.0
        );
        assert_eq!(
            &rib_fingerprint(many.router(*asn)),
            base,
            "AS{} RIB != never-faulted baseline at {shards} shards",
            asn.0
        );
        // Recovery leaves nothing behind inside a router either: no
        // stale holder, candidate or parked route from a session that
        // went down, and every selection is a from-scratch decision.
        one.router(*asn).check_invariants().expect("1-shard RIB invariants");
        many.router(*asn).check_invariants().expect("k-shard RIB invariants");
    }
}

fn small_internet(seed: u64) -> Topology {
    internet_like(
        InternetParams {
            tier1: 3,
            tier2: 6,
            stubs: 16,
            t2_peering_prob: 0.25,
            ..InternetParams::default()
        },
        seed,
    )
}

#[test]
fn recovery_equals_baseline_plain() {
    let topology = small_internet(81);
    let options = InstantiateOptions { seed: 81, ..Default::default() };
    assert_recovers_to_baseline(&topology, options, 3, 81);
}

#[test]
fn recovery_equals_baseline_signed() {
    let topology = small_internet(82);
    let options =
        InstantiateOptions { seed: 82, signed: true, key_bits: 512, ..Default::default() };
    assert_recovers_to_baseline(&topology, options, 4, 82);
}

#[test]
fn recovery_equals_baseline_with_mrai_and_dampening() {
    // The full failure-semantics stack in the path: jittered MRAI
    // batching delays the floods, dampening parks the fastest-flapped
    // routes until the reuse timer releases them — recovery must still
    // land on exactly the baseline.
    let topology = small_internet(83);
    let options = InstantiateOptions {
        seed: 83,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        ..Default::default()
    };
    assert_recovers_to_baseline(&topology, options, 2, 83);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies × random fault schedules × random shard
    /// counts: the recovery contract holds everywhere, with dampening
    /// in the path on odd seeds.
    #[test]
    fn random_fault_schedules_recover(
        seed in 0u64..10_000,
        tier1 in 2usize..=4,
        tier2 in 3usize..=8,
        stubs in 4usize..=16,
        shards in 2usize..=6,
    ) {
        let params = InternetParams {
            tier1,
            tier2,
            stubs,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let topology = internet_like(params, seed);
        let dampening =
            if seed % 2 == 1 { Some(DampeningPolicy::default()) } else { None };
        let options = InstantiateOptions { seed, dampening, ..Default::default() };
        assert_recovers_to_baseline(&topology, options, shards, seed);
    }
}
