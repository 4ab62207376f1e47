//! E16 — churn, fault injection, and graceful degradation. Three
//! phases, all plain-substrate (route security under churn is E12/E16's
//! deployment phase; byte-identity across shard counts needs no carve-out
//! here):
//!
//! 1. **Steady-state churn under faults** — `churn_events` continuous
//!    withdraw/re-announce cycles over a converged `internet_like`
//!    topology with MRAI batching (jittered timers), RFC 2439 route-
//!    flap dampening, and a seeded [`FaultPlan`] (two flapping links,
//!    one twice-reset session). Reports per-event route-settle p50/p99
//!    off the convergence timeline, withdraw-storm fan-out, and
//!    dampening suppressions — per shard count, with full telemetry
//!    equality asserted across shard counts.
//! 2. **Graceful degradation** — fraction of baseline route selections
//!    still intact when 0/5/10/20 % of links flap, probed mid-storm.
//! 3. **Partial deployment** — the [`pvr_attack::deployment_sweep`]
//!    curve: hijack success vs fraction of ASes validating origins,
//!    with the unprotected fringe scored separately.

use crate::recipe::{converged, e14_params, row};
use crate::{across_shards, report_struct, Cfg, Json, Report, ToJson};
use pvr_attack::{choose_placements, deployment_sweep, DeploymentPoint, DeploymentSweepConfig};
use pvr_bgp::workload::continuous_churn;
use pvr_bgp::{internet_like, Asn, DampeningPolicy, InstantiateOptions};
use pvr_crypto::drbg::HmacDrbg;
use pvr_netsim::{Fault, FaultPlan, RunLimits, SimDuration, SimTime, StopReason};
use std::sync::Arc;

/// E16's timeline window width, sim-time milliseconds (E15's rationale:
/// half the 10 ms link latency, so propagation rounds land in distinct
/// windows).
const E16_WINDOW_MS: u64 = 5;
/// E16's churn spacing: the withdraw/announce halves of each cycle sit
/// `spacing/2` apart, which must comfortably exceed the MRAI interval —
/// otherwise both halves merge inside one batching window and no flap
/// ever crosses the wire.
const E16_CHURN_SPACING_MS: u64 = 30;
/// MRAI interval and jitter bound for the churn runs: jittered batch
/// timers are part of the failure-semantics surface under test, kept
/// well under half the churn spacing (see [`E16_CHURN_SPACING_MS`]).
const E16_MRAI_MS: u64 = 5;
const E16_MRAI_JITTER_MS: u64 = 1;
/// Churn concentrates on this many origination pairs so per-pair flap
/// rates outrun the dampening half-life and suppressions are non-zero
/// (the CI smoke asserts it).
const E16_CHURN_CANDIDATES: usize = 4;
/// When the churn schedule starts: initial convergence is long over.
const E16_CHURN_START_MS: u64 = 1_000;
/// E16 never runs its degradation probes past this many ASes (five
/// deadline-limited converges per invocation).
const E16_DEGRADATION_MAX_SCALE: usize = 1000;
/// E16's partial-deployment sweep scale cap (ten converges: a clean
/// baseline plus an attacked run per fraction).
const E16_DEPLOYMENT_MAX_SCALE: usize = 500;

report_struct! {
    /// E16's structured results — the `metrics` object of the `e16`
    /// JSON record. Every field is sim-time derived and identical at
    /// every shard count (plain substrate, so not even the verify-cache
    /// carve-out applies).
    pub struct E16Metrics {
        /// AS count of the churn run.
        pub scale: usize,
        /// Churn events measured (withdraw + re-announce cycles).
        pub churn_events: usize,
        /// Median per-event route-settle time, sim-time µs.
        pub settle_p50_us: u64,
        /// 99th-percentile settle time, sim-time µs.
        pub settle_p99_us: u64,
        /// Total withdraw messages routers decided to send (pre-MRAI-merge:
        /// the fan-out of the withdraw storms).
        pub withdraws_sent: u64,
        /// `withdraws_sent / churn_events` — average storm fan-out.
        pub withdraw_fanout: f64 => 3,
        /// Announcements parked by RFC 2439-style dampening.
        pub dampening_suppressed: u64,
        /// Session-reset faults the plan applied.
        pub session_resets: u64,
        /// Link-down faults the plan applied.
        pub link_down: u64,
        /// Graceful degradation, one row per flap fraction.
        pub degradation: Vec<E16Degradation>,
        /// Partial-deployment curve (see [`pvr_attack::deployment_sweep`]).
        pub deployment: Vec<DeploymentPoint>,
    }
}

report_struct! {
    /// One graceful-degradation probe.
    pub struct E16Degradation {
        /// Share of links flapping, percent.
        pub flap_pct: u32,
        /// How many links that came to.
        pub links_flapping: usize,
        /// Share of baseline route selections still intact when probed
        /// mid-storm, percent.
        pub routes_correct_pct: f64 => 3,
    }
}

impl ToJson for DeploymentPoint {
    fn to_json(&self, det: bool, _dp: usize) -> Option<Json> {
        Some(Json::Obj(vec![
            ("fraction_pct", self.fraction_pct.to_json(det, 0)?),
            ("protected", self.protected.to_json(det, 0)?),
            ("attack_success_pct", self.attack_success_pct.to_json(det, 3)?),
            ("fringe_interception_pct", self.fringe_interception_pct.to_json(det, 3)?),
            ("origin_rejections", self.origin_rejections.to_json(det, 0)?),
        ]))
    }
}

report_struct! {
    /// One shard count's churn run: its share of [`E16Metrics`] and the
    /// full telemetry (the snapshot carries every `SimStats` counter),
    /// all of which must not depend on the shard count.
    struct E16Run {
        metrics: E16Metrics,
        snapshot: pvr_obs::Snapshot,
        timeline: pvr_obs::ConvergenceTimeline,
    }
}

/// The two endpoints of a topology edge, whichever flavor.
fn edge_endpoints(edge: &pvr_bgp::Edge) -> (Asn, Asn) {
    match *edge {
        pvr_bgp::Edge::ProviderCustomer { provider, customer } => (provider, customer),
        pvr_bgp::Edge::Peering(a, b) => (a, b),
        pvr_bgp::Edge::PartialTransit { provider, customer, .. } => (provider, customer),
    }
}

/// E16's seeded fault plan over real topology links: two flapping links
/// (down/up ramps through the churn window) and one session that resets
/// twice. Node ids come from `net`, but they are assigned identically
/// at every shard count, so the plan is too.
fn e16_fault_plan(
    topology: &pvr_bgp::Topology,
    net: &pvr_bgp::BgpNetwork,
    fault_seed: u64,
) -> FaultPlan {
    let edges = topology.edges();
    let mut rng = HmacDrbg::from_u64_labeled(fault_seed, "e16-faults");
    let mut picks: Vec<usize> = Vec::new();
    while picks.len() < 3.min(edges.len()) {
        let i = rng.index(edges.len());
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    let mut plan = FaultPlan::new();
    for (k, &i) in picks.iter().enumerate() {
        let (a, b) = edge_endpoints(&edges[i]);
        let (na, nb) = (net.node_of(a), net.node_of(b));
        if k < 2 {
            // Three down/up cycles, 100 ms apart: with a 200 ms
            // dampening half-life, per-prefix penalties on the flushed
            // neighbor ratchet past the suppress threshold on the
            // third teardown.
            plan.flap_link(
                na,
                nb,
                SimTime::ZERO + SimDuration::from_millis(1_200 + 150 * k as u64),
                SimDuration::from_millis(40),
                SimDuration::from_millis(100),
                3,
            );
        } else {
            plan.push(
                SimTime::ZERO + SimDuration::from_millis(1_500),
                Fault::SessionReset { a: na, b: nb },
            );
            plan.push(
                SimTime::ZERO + SimDuration::from_millis(1_900),
                Fault::SessionReset { a: na, b: nb },
            );
        }
    }
    plan
}

/// Per-event route-settle times against the churn schedule: for event
/// `k` at `t_k`, the time from `t_k` to the end of the last timeline
/// window carrying RIB churn before the next event starts. An event
/// whose re-announce is parked by dampening settles when the reuse
/// timer releases it — possibly inside a neighboring event's range,
/// the usual attribution blur of windowed telemetry. Events with no
/// churned window (fully suppressed) floor at one window width.
fn settle_times_us(
    schedule: &[(SimDuration, Asn, pvr_bgp::Prefix)],
    timeline: &pvr_obs::ConvergenceTimeline,
) -> Vec<u64> {
    let window = timeline.window_us;
    let mut out = Vec::with_capacity(schedule.len());
    for (k, &(at, _, _)) in schedule.iter().enumerate() {
        let t0 = at.as_micros();
        let t1 = schedule.get(k + 1).map_or(u64::MAX, |&(next, _, _)| next.as_micros());
        let settle = timeline
            .windows
            .iter()
            .filter(|w| w.rib_churn > 0 && w.start_us + window > t0 && w.start_us < t1)
            .map(|w| (w.start_us + window).saturating_sub(t0))
            .next_back()
            .unwrap_or(window);
        out.push(settle);
    }
    out
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// E16's graceful-degradation table: at each flap fraction, a seeded
/// subset of links flaps continuously and the network is probed
/// mid-storm (sim-time deadline) against a never-faulted baseline's
/// route selections. Serial engine; the numbers are sim-time
/// deterministic, so they are identical however `--shards` is set.
fn e16_degradation(scale: usize, fault_seed: u64) -> Vec<E16Degradation> {
    let topology = internet_like(e14_params(scale), 16);
    let options = InstantiateOptions { seed: 16, ..Default::default() };

    let (baseline_net, _) = converged("e16 degradation baseline", &topology, options, 1);
    let mut baseline: Vec<(Asn, pvr_bgp::Prefix, Vec<Asn>)> = Vec::new();
    for asn in topology.ases() {
        let r = baseline_net.router(asn);
        for p in r.selected_prefixes() {
            let c = r.best_route(p).expect("selected prefix has a best route");
            baseline.push((asn, p, c.route.path.asns().to_vec()));
        }
    }
    drop(baseline_net);

    let mut rows = Vec::new();
    for flap_pct in [0u32, 5, 10, 20] {
        let n = (topology.edge_count() * flap_pct as usize).div_ceil(100);
        let mut rng =
            HmacDrbg::from_u64_labeled(fault_seed, &format!("e16-degradation {flap_pct}"));
        let mut idx: Vec<usize> = (0..topology.edge_count()).collect();
        // Partial Fisher–Yates: only the first `n` slots need settling.
        for i in 0..n {
            let j = i + rng.below((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut net = topology.instantiate(options);
        let mut plan = FaultPlan::new();
        for (i, &e) in idx[..n].iter().enumerate() {
            let (a, b) = edge_endpoints(&topology.edges()[e]);
            // Staggered so the storm has no global phase: eight cycles
            // covering 1.0–1.9 s, probed at 1.5 s — mid-storm.
            plan.flap_link(
                net.node_of(a),
                net.node_of(b),
                SimTime::ZERO + SimDuration::from_millis(1_000 + 25 * (i as u64 % 4)),
                SimDuration::from_millis(50),
                SimDuration::from_millis(100),
                8,
            );
        }
        net.install_fault_plan(plan);
        net.converge(RunLimits {
            deadline: Some(SimTime::ZERO + SimDuration::from_millis(1_500)),
            max_events: None,
        });
        let intact = baseline
            .iter()
            .filter(|(asn, p, path)| {
                net.router(*asn)
                    .best_route(*p)
                    .map(|c| c.route.path.asns() == path.as_slice())
                    .unwrap_or(false)
            })
            .count();
        rows.push(E16Degradation {
            flap_pct,
            links_flapping: n,
            routes_correct_pct: 100.0 * intact as f64 / baseline.len().max(1) as f64,
        });
    }
    rows
}

pub fn run(cfg: &Cfg) -> Report {
    let (scale, fault_seed) = (cfg.scale.max(56), cfg.fault_seed);
    let shard_counts = cfg.shard_counts();
    let first_shards = shard_counts[0];

    // The churned topology: steady-state cycles concentrated on a few
    // origination pairs so per-pair flap rates outrun the dampening
    // half-life.
    let mut topology = internet_like(e14_params(scale), 16);
    let candidates: Vec<(Asn, pvr_bgp::Prefix)> = topology
        .ases()
        .flat_map(|a| topology.originated_by(a).iter().map(move |&p| (a, p)))
        .take(E16_CHURN_CANDIDATES)
        .collect();
    assert!(!candidates.is_empty(), "e16 needs originating ASes");
    let schedule = continuous_churn(
        &mut topology,
        &candidates,
        cfg.churn,
        SimDuration::from_millis(E16_CHURN_START_MS),
        SimDuration::from_millis(E16_CHURN_SPACING_MS),
        fault_seed,
    );

    let options = InstantiateOptions {
        seed: 16,
        mrai: Some(SimDuration::from_millis(E16_MRAI_MS)),
        mrai_jitter: Some(SimDuration::from_millis(E16_MRAI_JITTER_MS)),
        dampening: Some(DampeningPolicy::default()),
        timeline_window: Some(SimDuration::from_millis(E16_WINDOW_MS)),
        ..Default::default()
    };

    let mut out = String::new();
    row!(
        out,
        "E16: churn, fault injection, graceful degradation (scale {scale}, {} churn events, \
         fault seed {fault_seed})",
        schedule.len()
    );
    row!(out, "(plain substrate; MRAI {E16_MRAI_MS} ms +{E16_MRAI_JITTER_MS} ms jitter; RFC");
    row!(out, " 2439 dampening at default thresholds; fault plan: 2 flapping links + 1");
    row!(out, " twice-reset session; every number is sim-time-derived and identical at");
    row!(out, " every shard count — no carve-out applies in plain mode)");
    row!(
        out,
        "{:>6} {:>6} {:>8} {:>10} {:>10} {:>7} {:>9} {:>12} {:>12}",
        "scale",
        "shards",
        "windows",
        "withdraws",
        "suppressed",
        "resets",
        "link-down",
        "settle-p50",
        "settle-p99"
    );

    let mut runs = across_shards(&format!("e16 scale {scale}"), &shard_counts, |shards| {
        let mut net = topology.instantiate_sharded(options, shards);
        net.install_fault_plan(e16_fault_plan(&topology, &net, fault_seed));
        let stop = net.converge(RunLimits::none());
        assert_eq!(
            stop,
            StopReason::Quiescent,
            "e16 scale {scale} shards {shards}: churn run must recover to quiescence"
        );
        let timeline = net.convergence_timeline().expect("timeline enabled");
        let stats = net.sim.stats().clone();
        let totals = net.router_totals();
        let mut settles = settle_times_us(&schedule, &timeline);
        settles.sort_unstable();
        let (p50, p99) = (percentile(&settles, 50), percentile(&settles, 99));
        row!(
            out,
            "{:>6} {:>6} {:>8} {:>10} {:>10} {:>7} {:>9} {:>9} µs {:>9} µs",
            scale,
            shards,
            timeline.windows.len(),
            totals.withdraws_sent,
            totals.dampening_suppressed,
            stats.session_resets,
            stats.link_down,
            p50,
            p99
        );
        let metrics = E16Metrics {
            scale,
            churn_events: schedule.len(),
            settle_p50_us: p50,
            settle_p99_us: p99,
            withdraws_sent: totals.withdraws_sent,
            withdraw_fanout: totals.withdraws_sent as f64 / schedule.len().max(1) as f64,
            dampening_suppressed: totals.dampening_suppressed,
            session_resets: stats.session_resets,
            link_down: stats.link_down,
            degradation: Vec::new(),
            deployment: Vec::new(),
        };
        E16Run { metrics, snapshot: net.metrics_snapshot("plain"), timeline }
    });
    for shards in &shard_counts[1..] {
        row!(
            out,
            "scale {scale}: shards {shards} telemetry == shards {first_shards} \
             (bit-exact, no carve-out): true"
        );
    }
    let mut metrics = runs.swap_remove(0).metrics;

    // Phase 2: graceful degradation.
    let deg_scale = scale.min(E16_DEGRADATION_MAX_SCALE);
    metrics.degradation = e16_degradation(deg_scale, fault_seed);
    row!(out, "\ngraceful degradation — {deg_scale} ASes, probed mid-storm at 1.5 s sim-time:");
    row!(out, "{:>6} {:>15} {:>16}", "flap%", "links-flapping", "routes-correct%");
    for d in &metrics.degradation {
        row!(out, "{:>6} {:>15} {:>15.1}%", d.flap_pct, d.links_flapping, d.routes_correct_pct);
    }

    // Phase 3: partial deployment.
    let dep_scale = scale.min(E16_DEPLOYMENT_MAX_SCALE);
    let dep_topology = Arc::new(internet_like(e14_params(dep_scale), 16));
    let placement = choose_placements(&dep_topology, 1, fault_seed)[0];
    let config = DeploymentSweepConfig {
        seed: fault_seed,
        fractions_pct: vec![0, 25, 50, 75, 100],
        parallelism: 0,
    };
    metrics.deployment = deployment_sweep(&dep_topology, placement, &config);
    row!(
        out,
        "\npartial deployment — {dep_scale} ASes, AS{} hijacking AS{}'s prefix:",
        placement.attacker.0,
        placement.victim.0
    );
    row!(
        out,
        "{:>9} {:>9} {:>15} {:>18} {:>17}",
        "deployed%",
        "protected",
        "attack-success%",
        "fringe-intercept%",
        "origin-rejections"
    );
    for p in &metrics.deployment {
        row!(
            out,
            "{:>9} {:>9} {:>14.1}% {:>17.1}% {:>17}",
            p.fraction_pct,
            p.protected,
            p.attack_success_pct,
            p.fringe_interception_pct,
            p.origin_rejections
        );
    }
    row!(out, "(expected: suppressed > 0 — dampening parks the fastest flappers; settle-p99");
    row!(out, " well above p50 — fault windows stretch the tail; routes-correct falls as");
    row!(out, " the flapping fraction grows; attack success falls with deployment while");
    row!(out, " the unprotected fringe stays at least as exposed as the average)");
    if cfg.quick {
        smoke(&metrics);
    }
    Report { table: out, metrics: vec![("metrics", Box::new(metrics))], artifacts: Vec::new() }
}

/// What only holds on CI's `--quick` run (default `--churn` and
/// `--fault-seed`): the churn/fault layer actually churned — live
/// settle percentiles, a real withdraw storm, non-zero dampening
/// suppressions and fault counts, degradation that degrades, and a
/// deployment curve from an attack that lands to one that cannot.
fn smoke(m: &E16Metrics) {
    let live = [
        m.settle_p50_us,
        m.settle_p99_us,
        m.withdraws_sent,
        m.dampening_suppressed,
        m.session_resets,
        m.link_down,
    ];
    assert!(live.iter().all(|&v| v > 0) && m.withdraw_fanout > 0.0, "e16 dead field in {m:?}");
    assert!(m.settle_p99_us >= m.settle_p50_us, "e16 p99 below p50");
    let control = m.degradation.first().expect("e16 degradation table is empty");
    assert!(control.flap_pct == 0 && control.routes_correct_pct > 99.0, "e16 control {control:?}");
    let degrades = |d: &E16Degradation| d.routes_correct_pct < control.routes_correct_pct;
    assert!(m.degradation.iter().any(degrades), "e16 degradation never degrades");
    assert!(m.deployment.len() >= 2, "e16 deployment table too small");
    let (first, last) = (&m.deployment[0], &m.deployment[m.deployment.len() - 1]);
    assert!(first.fraction_pct == 0 && first.attack_success_pct > 0.0, "e16 undefended {first:?}");
    assert!(last.fraction_pct == 100 && last.attack_success_pct == 0.0, "e16 deployed {last:?}");
}
