//! The engine's shard-count contract: byte-identical outputs at any
//! shard count (1 shard is the baseline) — converged RIBs, event
//! counts, simulator stats, per-router counters (modulo
//! `verify_cache_hits`, whose scope legitimately shrinks with
//! per-shard caches) and, signed, every attestation chain held, byte
//! for byte. Exercised over
//! random topologies, random shard counts, signed mode, and `Malice`
//! route leaks, so the CI determinism gate rests on more than one
//! hand-picked workload.

use proptest::prelude::*;
use pvr::bgp::{
    internet_like, Asn, BgpRouter, Candidate, InstantiateOptions, InternetParams, Malice, Prefix,
    Topology,
};
use pvr::crypto::Wire;
use pvr::netsim::{RunLimits, StopReason};
use std::sync::Arc;

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

/// Every attestation chain `router` holds over its Adj-RIB-In, as wire
/// bytes, in (neighbor, prefix) order. Encoding reads every signature.
fn held_chains(topology: &Topology, router: &BgpRouter) -> Vec<(Asn, Prefix, Vec<u8>)> {
    let mut chains = Vec::new();
    for (neighbor, _) in topology.neighbor_roles(router.asn()) {
        for (prefix, _) in router.routes_from(neighbor) {
            let chain = router.received_chain(neighbor, prefix).expect("a held route has a chain");
            chains.push((neighbor, prefix, chain.to_wire()));
        }
    }
    chains
}

/// Converges `topology` at 1 shard and at `shards` and asserts every
/// deterministic observable matches. `leaker` optionally flips one AS to
/// `Malice::leak_all` before the run (in both networks, symmetrically).
fn assert_shard_counts_agree(
    topology: &Topology,
    options: InstantiateOptions,
    shards: usize,
    leaker: Option<Asn>,
) {
    let mut one = topology.instantiate(options);
    let mut many = topology.instantiate_sharded(options, shards);
    if options.signed {
        let table = Arc::new(topology.origin_table());
        one.install_origin_table(Arc::clone(&table));
        many.install_origin_table(table);
    }
    if let Some(asn) = leaker {
        let malice = Malice { leak_all: true };
        one.router_mut(asn).set_malice(malice.clone());
        many.router_mut(asn).set_malice(malice);
    }

    assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(many.converge(RunLimits::none()), StopReason::Quiescent);

    // Identical event counts and simulator stats (events, delivered,
    // sent, bytes, drops — all of it).
    assert_eq!(one.sim.stats(), many.sim.stats(), "{shards} shards");
    assert_eq!(one.sim.now(), many.sim.now(), "{shards} shards");

    // Identical converged RIBs and per-router counters. verify_calls is
    // part of the shard-invariant projection: the checks *requested*
    // cannot depend on cache scope, only the hits can.
    for asn in topology.ases() {
        assert_eq!(
            rib_fingerprint(one.router(asn)),
            rib_fingerprint(many.router(asn)),
            "{asn} RIB at {shards} shards"
        );
        assert_eq!(
            one.router(asn).stats().shard_invariant(),
            many.router(asn).stats().shard_invariant(),
            "{asn} counters at {shards} shards"
        );
        // Each end state is internally sound as well: every
        // selection is what a from-scratch decision over the candidates
        // gives, and what was advertised is what was selected.
        one.router(asn).check_invariants().expect("1-shard RIB invariants");
        many.router(asn).check_invariants().expect("k-shard RIB invariants");
        // Per-shard caches can only lose reuse opportunities relative
        // to one shard's network-wide cache, never gain them.
        assert!(
            many.router(asn).stats().verify_cache_hits <= one.router(asn).stats().verify_cache_hits,
            "{asn} at {shards} shards: cache hits exceed the 1-shard run's"
        );
        // The chains held, signatures included: RIB equality never
        // reads one, and who signed an attestation — a sign-ahead
        // helper thread, which only runs beside fewer shards than
        // cores, or the router that first read it — must not show.
        if options.signed {
            assert_eq!(
                held_chains(topology, one.router(asn)),
                held_chains(topology, many.router(asn)),
                "{asn} chains at {shards} shards"
            );
        }
    }

    // Order-independent network totals (the satellite-3 pin): summed
    // counters agree however the routers are laid out.
    assert_eq!(
        one.router_totals().shard_invariant(),
        many.router_totals().shard_invariant(),
        "{shards} shards"
    );
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
fn signed_run_identical_across_shard_counts() {
    let topology = small_internet(61);
    let options =
        InstantiateOptions { seed: 61, signed: true, key_bits: 512, ..Default::default() };
    for shards in [2, 4, 8] {
        assert_shard_counts_agree(&topology, options, shards, None);
    }
}

#[test]
fn malicious_leaker_identical_across_shard_counts() {
    // A tier-2 AS leaking everything it hears changes propagation
    // substantially; the shard counts must still agree event for event.
    let topology = small_internet(62);
    let options = InstantiateOptions { seed: 62, ..Default::default() };
    for shards in [2, 5] {
        assert_shard_counts_agree(&topology, options, shards, Some(Asn(101)));
    }
}

#[test]
fn signed_malicious_leaker_identical_across_shard_counts() {
    let topology = small_internet(63);
    let options =
        InstantiateOptions { seed: 63, signed: true, key_bits: 512, ..Default::default() };
    assert_shard_counts_agree(&topology, options, 3, Some(Asn(102)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies × random shard counts (1–8), plain mode, with
    /// a randomly placed route leaker on odd seeds.
    #[test]
    fn random_topology_matches_serial(
        seed in 0u64..10_000,
        tier1 in 2usize..=4,
        tier2 in 3usize..=8,
        stubs in 4usize..=20,
        shards in 1usize..=8,
    ) {
        let params = InternetParams {
            tier1,
            tier2,
            stubs,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let topology = internet_like(params, seed);
        let leaker = if seed % 2 == 1 { Some(Asn(100 + (seed % tier2 as u64) as u32)) } else { None };
        let options = InstantiateOptions { seed, ..Default::default() };
        assert_shard_counts_agree(&topology, options, shards, leaker);
    }
}
