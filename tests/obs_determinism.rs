//! The telemetry layer's shard-count contract: metrics snapshots,
//! timeline windows, and JSONL traces at shards 2, 4, and 8 are
//! byte-identical to the 1-shard run's — with exactly one carve-out,
//! `verify_cache_hits` (and the hit-ratio gauge derived from it):
//! verification caches are per shard and legitimately see fewer hits
//! than one shard's network-wide cache.

use pvr::bgp::{
    internet_like, workload, Asn, DampeningPolicy, Edge, InstantiateOptions, InternetParams, Prefix,
};
use pvr::netsim::{Fault, FaultPlan, NodeId, RunLimits, SimDuration, SimTime, StopReason};
use std::sync::Arc;

/// The carve-out predicate: every series derived from cache hits, by
/// name (`pvr_router_verify_cache_hits_total`,
/// `pvr_verify_cache_hit_ratio`).
fn hit_series(name: &str) -> bool {
    name.contains("verify_cache_hit")
}

fn observed_options(signed: bool) -> InstantiateOptions {
    InstantiateOptions {
        seed: 71,
        signed,
        key_bits: 512,
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 32,
        ..Default::default()
    }
}

#[test]
fn telemetry_is_engine_invariant_modulo_cache_hits() {
    let params = InternetParams { tier1: 3, tier2: 8, stubs: 24, ..InternetParams::default() };
    let topology = internet_like(params, 71);
    for signed in [false, true] {
        let options = observed_options(signed);
        let mut one = topology.instantiate(options);
        if signed {
            one.install_origin_table(Arc::new(topology.origin_table()));
        }
        assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);
        let one_snap = one.metrics_snapshot(if signed { "signed" } else { "plain" });
        let one_tl = one.convergence_timeline().expect("timeline enabled");
        let one_trace = one.trace_jsonl();
        assert!(!one_snap.series.is_empty());
        assert!(!one_tl.windows.is_empty());
        assert!(!one_trace.is_empty());

        for shards in [2usize, 4, 8] {
            let mut many = topology.instantiate_sharded(options, shards);
            if signed {
                many.install_origin_table(Arc::new(topology.origin_table()));
            }
            assert_eq!(many.converge(RunLimits::none()), StopReason::Quiescent);
            let snap = many.metrics_snapshot(if signed { "signed" } else { "plain" });
            let tl = many.convergence_timeline().expect("timeline enabled");

            // Metrics: identical modulo the carve-out series.
            assert_eq!(
                snap.without(hit_series),
                one_snap.without(hit_series),
                "metrics diverge at {shards} shards (signed={signed})"
            );
            // Timeline: identical windows modulo the hits channel, and
            // the window *set* matches exactly (cell-existence
            // alignment: verify channels only record when calls > 0).
            assert_eq!(
                tl.zero_cache_hits(),
                one_tl.zero_cache_hits(),
                "timeline diverges at {shards} shards (signed={signed})"
            );
            // Traces record verify *calls*, never hits, so they are
            // byte-identical with no carve-out at all.
            assert_eq!(
                many.trace_jsonl(),
                one_trace,
                "trace diverges at {shards} shards (signed={signed})"
            );
            // The carve-out direction: per-shard caches can only lose
            // hits relative to the network-wide cache.
            if signed {
                let one_hits =
                    one_snap.counter_value("pvr_router_verify_cache_hits_total").unwrap();
                let many_hits = snap.counter_value("pvr_router_verify_cache_hits_total").unwrap();
                assert!(many_hits <= one_hits);
            }
        }
    }
}

/// The two endpoints of a topology edge, whichever flavor.
fn endpoints(edge: &Edge) -> (Asn, Asn) {
    match *edge {
        Edge::ProviderCustomer { provider, customer } => (provider, customer),
        Edge::Peering(a, b) => (a, b),
        Edge::PartialTransit { provider, customer, .. } => (provider, customer),
    }
}

#[test]
fn fault_telemetry_is_engine_invariant() {
    // A churn-plus-faults run in plain mode: no signing → no verify
    // cache → no carve-out anywhere. Snapshot, timeline, and trace must
    // be byte-identical across shard counts, *including* every fault counter
    // and the withdraw-storm channel the fault layer feeds.
    let params = InternetParams { tier1: 3, tier2: 8, stubs: 24, ..InternetParams::default() };
    let mut topology = internet_like(params, 73);
    let candidates: Vec<(Asn, Prefix)> = topology
        .ases()
        .flat_map(|a| topology.originated_by(a).iter().map(move |&p| (a, p)))
        .take(3)
        .collect();
    workload::continuous_churn(
        &mut topology,
        &candidates,
        24,
        SimDuration::from_millis(400),
        SimDuration::from_millis(30),
        73,
    );
    // Two faulted edges: a three-cycle flap fast enough to outrun the
    // dampening half-life (penalties 1000 → 1707 → 2207 > the 2000
    // suppress threshold) and a mid-churn session reset.
    let (fa, fb) = endpoints(&topology.edges()[0]);
    let (ra, rb) = endpoints(&topology.edges()[1]);
    let fault_plan = |node_of: &dyn Fn(Asn) -> NodeId| {
        let mut plan = FaultPlan::new();
        plan.flap_link(
            node_of(fa),
            node_of(fb),
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_millis(40),
            SimDuration::from_millis(100),
            3,
        );
        plan.push(
            SimTime::ZERO + SimDuration::from_millis(700),
            Fault::SessionReset { a: node_of(ra), b: node_of(rb) },
        );
        plan
    };
    let options = InstantiateOptions {
        seed: 73,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 32,
        ..Default::default()
    };

    let mut one = topology.instantiate(options);
    one.install_fault_plan(fault_plan(&|a| one.node_of(a)));
    assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);
    let one_snap = one.metrics_snapshot("plain");
    let one_tl = one.convergence_timeline().expect("timeline enabled");
    let one_trace = one.trace_jsonl();

    // The fault layer actually showed up in the telemetry.
    for name in [
        "pvr_sim_link_down_total",
        "pvr_sim_session_resets_total",
        "pvr_router_withdraws_sent_total",
        "pvr_router_dampening_suppressed_total",
    ] {
        assert!(
            one_snap.counter_value(name).unwrap_or(0) > 0,
            "{name} should be non-zero in a churn-plus-faults run"
        );
    }
    assert!(
        one_tl.windows.iter().any(|w| w.withdraws > 0),
        "some timeline window should carry withdraw-storm activity"
    );

    for shards in [2usize, 4, 8] {
        let mut many = topology.instantiate_sharded(options, shards);
        many.install_fault_plan(fault_plan(&|a| many.node_of(a)));
        assert_eq!(many.converge(RunLimits::none()), StopReason::Quiescent);
        // Plain mode: full equality, no carve-out predicate in sight.
        assert_eq!(
            many.metrics_snapshot("plain"),
            one_snap,
            "fault metrics diverge at {shards} shards"
        );
        assert_eq!(
            many.convergence_timeline().expect("timeline enabled"),
            one_tl,
            "fault timeline diverges at {shards} shards"
        );
        assert_eq!(many.trace_jsonl(), one_trace, "fault trace diverges at {shards} shards");
    }
}

#[test]
fn disabled_telemetry_stays_dark() {
    let params = InternetParams::default();
    let topology = internet_like(params, 72);
    let mut net = topology.instantiate(InstantiateOptions { seed: 72, ..Default::default() });
    assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
    // No timeline window → no recorder; no journal capacity → no trace.
    assert!(net.convergence_timeline().is_none());
    assert!(net.trace_jsonl().is_empty());
    // Metrics still work: counters come from the always-on stats structs.
    let snap = net.metrics_snapshot("plain");
    assert!(snap.counter_value("pvr_sim_events_total").unwrap() > 0);
}
