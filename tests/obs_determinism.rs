//! The telemetry layer's shard-count contract: metrics snapshots,
//! timeline windows, and JSONL traces at shards 2, 4, and 8 are
//! byte-identical to the 1-shard run's — with exactly one carve-out,
//! `verify_cache_hits` (and the hit-ratio gauge derived from it):
//! verification caches are per shard and legitimately see fewer hits
//! than one shard's network-wide cache.

use pvr::bgp::{
    internet_like, workload, Asn, DampeningPolicy, InstantiateOptions, InternetParams, Prefix,
};
use pvr::netsim::{Fault, FaultPlan, NodeId, RunLimits, SimDuration, SimTime, StopReason};
use std::sync::Arc;

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
        assert!(!one_snap.series().is_empty());
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
                snap.shard_invariant(),
                one_snap.shard_invariant(),
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
    let (fa, fb) = topology.edges()[0].endpoints();
    let (ra, rb) = topology.edges()[1].endpoints();
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
        dampening: Some(DampeningPolicy),
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

/// Every router's full `RouterStats` — `verify_cache_hits` included —
/// after a serial signed convergence, as one SHA-256 per seed. One
/// `VerifyCache` serves the whole network, so which router of a window
/// asks first for a signature decides whose call is the miss; the
/// engine's dispatch order within a window must not move that split.
/// The values were read before dispatch became node-major (300 ASes,
/// the benchmark's `signed_converge` recipe and options).
#[test]
fn per_router_stats_under_a_shared_cache_are_pinned() {
    let params = InternetParams {
        tier1: 8,
        tier2: 12,
        stubs: 280,
        t2_peering_prob: 0.2,
        originating_stubs: 256,
    };
    for (seed, golden) in [
        (14, "462966e7fcacc23c9a1682ea331a6588042dd3843ec16dcc57461aa920089e40"),
        (41, "882d8e9746f496fa4df8fb9c2b2e1897d499d7e40adee407f209fc8419fdaa7c"),
    ] {
        let topology = internet_like(params, seed);
        let options =
            InstantiateOptions { seed, signed: true, key_bits: 512, ..Default::default() };
        let mut net = topology.instantiate(options);
        net.install_origin_table(Arc::new(topology.origin_table()));
        assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
        let mut bytes = Vec::new();
        for asn in topology.ases() {
            bytes.extend(asn.0.to_be_bytes());
            for (_, value) in net.router(asn).stats().fields() {
                bytes.extend(value.to_be_bytes());
            }
        }
        let hits: u64 = topology.ases().map(|a| net.router(a).stats().verify_cache_hits).sum();
        assert!(hits > 0, "seed {seed}: the shared cache must answer some calls");
        assert_eq!(pvr::crypto::sha256::sha256(&bytes).to_hex(), golden, "seed {seed}");
    }
}
