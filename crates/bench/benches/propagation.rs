//! E14 — propagation-substrate microbenchmarks: the costs the
//! structural-sharing refactor targets. Chain prepends and per-neighbor
//! fan-out clones are the per-hop unit work; the `e14_router` group is
//! the per-UPDATE unit cost of one router, replayed from a recorded
//! trace; the `internet_like` convergence group measures the
//! end-to-end effect at the default 56-AS topology and at 1 000 ASes
//! (the full ladder lives in harness experiment e14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pvr_bench::e14_params;
use pvr_bgp::{
    demo_chain, internet_like, AsPath, Asn, BgpRouter, BgpUpdate, InstantiateOptions, LocalEvent,
    PolicyConfig, Prefix, Role, Route, SecurityMode, SignedRoute,
};
use pvr_netsim::{Agent, Context, NodeId, Payload, RunLimits, SimDuration, SimTime, Simulator};
use std::any::Any;
use std::hint::black_box;

/// Prepending to an AS path: the one allocation a propagated route
/// makes. Downstream clones are refcount bumps, benchmarked alongside.
fn bench_chain_prepend(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_path");
    for hops in [2usize, 8, 32] {
        let asns: Vec<Asn> = (1..=hops as u32).map(Asn).collect();
        let path = AsPath::from_slice(&asns);
        g.bench_with_input(BenchmarkId::new("prepend", hops), &path, |b, p| {
            b.iter(|| black_box(p.prepend(Asn(9999))));
        });
        g.bench_with_input(BenchmarkId::new("clone", hops), &path, |b, p| {
            b.iter(|| black_box(p.clone()));
        });
    }
    g.finish();
}

/// Per-neighbor fan-out: what a router pays to hand one selected route
/// to each neighbor. With shared payloads this is clone-of-`Arc`s; the
/// signed variant clones a full 5-hop attestation chain too.
fn bench_fanout_clone(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_fanout");
    let mut route = Route::originate(Prefix::parse("10.1.0.0/16").unwrap());
    route.path = AsPath::from_slice(&[Asn(1), Asn(2), Asn(3), Asn(4)]);
    let plain = SignedRoute::unsigned(route);
    g.bench_function("clone_unsigned_route", |b| {
        b.iter(|| black_box(plain.clone()));
    });
    let (chain, _, _) = demo_chain(5, 512, b"bench fanout");
    g.bench_function("clone_5hop_chain", |b| {
        b.iter(|| black_box(chain.clone()));
    });
    let update = BgpUpdate { announces: vec![chain], withdraws: vec![] };
    g.bench_function("wire_size_signed_update", |b| {
        b.iter(|| black_box(update.wire_size()));
    });
    g.finish();
}

/// Full `internet_like` plain convergence: at the default 56-AS
/// parameters — the end-to-end number the sharing refactor moves — and
/// at 1 000 ASes, whose RIBs outgrow the cache, so the order a window's
/// events are dispatched in shows (DESIGN.md, "Node-major dispatch").
fn bench_convergence(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_convergence");
    g.sample_size(10);
    for ases in [56, 1000] {
        let topology = internet_like(e14_params(ases), 14);
        g.bench_function(format!("internet_like_{ases}_plain"), |b| {
            b.iter(|| {
                let mut net =
                    topology.instantiate(InstantiateOptions { seed: 14, ..Default::default() });
                net.converge(RunLimits::none());
                black_box(net.sim.stats().events)
            });
        });
    }
    g.finish();
}

/// A neighbor that swallows what the replayed router sends it.
struct Sink;

impl Agent<BgpUpdate> for Sink {
    fn on_message(&mut self, _: &mut Context<BgpUpdate>, _: NodeId, _: BgpUpdate) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Delivers `trace` — `(neighbor index, update)` in arrival order — to
/// a fresh router for `hub` (node 0; neighbor `i` sits at node `i + 1`)
/// and runs it dry. Returns the events processed.
fn replay(hub: Asn, roles: &[(Asn, Role)], trace: &[(usize, BgpUpdate)]) -> u64 {
    let mut policy = PolicyConfig::new();
    for &(neighbor, role) in roles {
        policy.set_role(neighbor, role);
    }
    let mut router = BgpRouter::new(hub, policy, SecurityMode::Plain);
    for (i, &(neighbor, _)) in roles.iter().enumerate() {
        router.add_neighbor(neighbor, i + 1);
    }
    let mut sim: Simulator<BgpUpdate> = Simulator::new(14);
    sim.add_node(Box::new(router));
    for _ in roles {
        sim.add_node(Box::new(Sink));
    }
    for (from, update) in trace {
        sim.inject(from + 1, 0, update.clone());
    }
    sim.run(RunLimits::none());
    sim.stats().events
}

/// One router's per-UPDATE cost, beside the end-to-end number: every
/// UPDATE the best-connected AS of a 300-AS internet received — first
/// while the network converged (announce-heavy), then while every
/// origin withdrew its prefix (withdraw-heavy) — replayed through a
/// fresh `BgpRouter`. A withdraw means nothing to an empty RIB, so the
/// second measurement replays both halves; subtract the first.
fn bench_router_replay(c: &mut Criterion) {
    let teardown = SimDuration::from_millis(5_000);
    let mut topology = internet_like(e14_params(300), 14);
    let origins: Vec<(Asn, Prefix)> = topology
        .ases()
        .flat_map(|a| topology.originated_by(a).iter().map(move |&p| (a, p)).collect::<Vec<_>>())
        .collect();
    for (asn, prefix) in origins {
        topology.schedule(asn, teardown, LocalEvent::Withdraw(prefix));
    }
    let hub = topology
        .ases()
        .max_by_key(|&a| topology.neighbor_roles(a).len())
        .expect("topology has ASes");
    let roles = topology.neighbor_roles(hub);

    let mut net = topology.instantiate(InstantiateOptions { seed: 14, ..Default::default() });
    net.sim.enable_trace();
    net.converge(RunLimits::none());
    let hub_node = net.node_of(hub);
    let index_of = |node: NodeId| {
        roles.iter().position(|&(n, _)| net.node_of(n) == node).expect("sender is a neighbor")
    };
    let received: Vec<(SimTime, usize, BgpUpdate)> = net
        .sim
        .trace()
        .expect("trace enabled")
        .iter()
        .filter(|d| d.dst == hub_node)
        .map(|d| (d.time, index_of(d.src), d.msg.clone()))
        .collect();
    let announce_half = received.iter().take_while(|(t, ..)| *t < SimTime::ZERO + teardown).count();
    let trace: Vec<(usize, BgpUpdate)> = received.into_iter().map(|(_, n, u)| (n, u)).collect();
    assert!(0 < announce_half && announce_half < trace.len(), "both halves carry updates");

    let mut g = c.benchmark_group("e14_router");
    g.sample_size(10);
    g.throughput(Throughput::Elements(announce_half as u64));
    g.bench_function("announce_half", |b| {
        b.iter(|| black_box(replay(hub, &roles, &trace[..announce_half])));
    });
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("announce_then_withdraw_half", |b| {
        b.iter(|| black_box(replay(hub, &roles, &trace)));
    });
    g.finish();
}

criterion_group!(
    propagation,
    bench_chain_prepend,
    bench_fanout_clone,
    bench_router_replay,
    bench_convergence
);
criterion_main!(propagation);
