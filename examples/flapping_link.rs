//! A flapping link torn down and brought back through a seeded fault
//! plan: watch the withdraw storm roll through the convergence
//! timeline, route-flap dampening park the fastest flapper, and the
//! network recover to exactly its never-faulted routes.
//!
//! Run with: `cargo run --release --example flapping_link`

use pvr::bgp::{internet_like, DampeningPolicy, Edge, InstantiateOptions, InternetParams};
use pvr::netsim::{FaultPlan, RunLimits, SimDuration, SimTime};

fn main() {
    // An Internet-like network with the failure-semantics stack on:
    // MRAI batching (5 ms + 1 ms jitter), RFC 2439 dampening at default
    // thresholds, and 5 ms sim-time timeline windows.
    let params = InternetParams { tier1: 3, tier2: 8, stubs: 24, ..InternetParams::default() };
    let topology = internet_like(params, 8);
    let options = InstantiateOptions {
        seed: 8,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy),
        timeline_window: Some(SimDuration::from_millis(5)),
        ..Default::default()
    };

    // The never-faulted baseline: converge once, remember every
    // selected route.
    let mut baseline = topology.instantiate(options);
    baseline.converge(RunLimits::none());
    let mut baseline_routes = Vec::new();
    for a in topology.ases() {
        for p in baseline.router(a).selected_prefixes() {
            baseline_routes.push((
                a,
                p,
                baseline.router(a).best_route(p).expect("selected").to_candidate(),
            ));
        }
    }
    println!(
        "baseline: {} selected routes across {} ASes",
        baseline_routes.len(),
        topology.ases().count()
    );

    // The fault plan: the first provider-customer edge flaps three
    // times — 40 ms down per 100 ms cycle, fast enough to outrun the
    // 200 ms dampening half-life (penalties 1000 → 1707 → 2207, past
    // the 2000 suppress threshold on the third teardown).
    let (a, b) = match topology.edges()[0] {
        Edge::ProviderCustomer { provider, customer } => (provider, customer),
        Edge::Peering(x, y) => (x, y),
        Edge::PartialTransit { provider, customer, .. } => (provider, customer),
    };
    let mut net = topology.instantiate(options);
    let mut plan = FaultPlan::new();
    plan.flap_link(
        net.node_of(a),
        net.node_of(b),
        SimTime::ZERO + SimDuration::from_millis(500),
        SimDuration::from_millis(40),
        SimDuration::from_millis(100),
        3,
    );
    net.install_fault_plan(plan);
    println!("flapping AS{} <-> AS{}: 3 cycles, 40 ms down per 100 ms, from t=500 ms", a.0, b.0);

    net.converge(RunLimits::none());

    // The storm, on the timeline: each teardown floods withdraws, each
    // recovery re-announces; windows with withdraw activity are the
    // storm rolling through.
    let timeline = net.convergence_timeline().expect("timeline enabled");
    println!("\nwindows with withdraw activity (5 ms sim-time windows):");
    for w in timeline.windows.iter().filter(|w| w.withdraws > 0) {
        println!(
            "  t={:>4} ms: {:>3} withdraws, {:>4} rib changes, {:>5} events",
            w.start_us / 1000,
            w.withdraws,
            w.rib_churn,
            w.events
        );
    }

    let stats = net.sim.stats();
    let totals = topology.ases().map(|a| net.router(a).stats().clone()).fold(
        pvr::bgp::RouterStats::default(),
        |mut acc, s| {
            acc.add(&s);
            acc
        },
    );
    println!("\nfault counters: {} link-down, {} link-up", stats.link_down, stats.link_up);
    println!(
        "router totals: {} withdraws flooded, {} announcements parked by dampening",
        totals.withdraws_sent, totals.dampening_suppressed
    );

    // The recovery contract: once the schedule ends and the reuse
    // timer releases the parked routes, the RIBs are exactly the
    // never-faulted baseline's.
    let intact = baseline_routes
        .iter()
        .filter(|(a, p, c)| net.router(*a).best_route(*p) == Some(c.borrowed()))
        .count();
    println!(
        "\nrecovered: {intact}/{} routes equal the never-faulted baseline",
        baseline_routes.len()
    );
    assert_eq!(intact, baseline_routes.len(), "recovery must be exact");
}
