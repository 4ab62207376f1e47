//! Engine checkpoint/restore equivalence: a run interrupted at a
//! deadline, saved, loaded into a freshly built simulator, and resumed
//! must be indistinguishable — stats, clock, timeline, DRBG stream —
//! from the same run left uninterrupted. Exercised at several shard
//! counts, with jitter and loss (DRBG continuation) and fault plans
//! (remaining schedule round-trip).

use pvr_netsim::sim::Agent;
use pvr_netsim::{
    BarrierHook, Context, Fault, FaultPlan, LinkConfig, NodeId, Payload, RunLimits, SimDuration,
    SimTime, Simulator, StateError, StopReason,
};
use std::any::Any;

#[derive(Clone, Debug, PartialEq)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> usize {
        4
    }
}

pvr_crypto::wire_struct!(Token { 0 });

/// Relay whose behaviour depends only on message contents, so a
/// freshly built instance continues a restored run identically.
#[derive(Clone)]
struct Relay {
    peer: NodeId,
    kick_off: u32,
}

impl Agent<Token> for Relay {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if self.kick_off > 0 {
            ctx.send(self.peer, Token(self.kick_off));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
        if msg.0 > 0 {
            ctx.send(self.peer, Token(msg.0 - 1));
        }
    }
    fn on_session(&mut self, ctx: &mut Context<Token>, peer: NodeId, up: bool) {
        if up {
            ctx.send(peer, Token(3));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const SEED: u64 = 21;
const NODES: usize = 4;

fn ring_link() -> LinkConfig {
    LinkConfig::with_latency(SimDuration::from_millis(3))
        .jittered(SimDuration::from_micros(500))
        .lossy(0.1)
}

fn plan() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime(40_000), Fault::LinkDown { a: 0, b: 1 })
        .at(SimTime(90_000), Fault::LinkUp { a: 0, b: 1 })
}

fn ring(shards: usize, with_plan: bool, with_timeline: bool) -> Simulator<Token> {
    let mut sim = Simulator::with_shards(SEED, shards);
    for i in 0..NODES {
        sim.add_node(Box::new(Relay { peer: (i + 1) % NODES, kick_off: u32::from(i == 0) * 60 }));
    }
    sim.set_default_link(ring_link());
    if with_plan {
        sim.set_fault_plan(plan());
    }
    if with_timeline {
        sim.enable_timeline(SimDuration::from_millis(10));
    }
    sim
}

#[test]
fn restore_matches_uninterrupted() {
    for shards in [1, 2, 4] {
        for (with_plan, kill_at) in [(false, 20_000), (true, 50_000), (true, 131_072)] {
            let mut baseline = ring(shards, with_plan, true);
            baseline.run(RunLimits::none());

            let mut first = ring(shards, with_plan, true);
            first.run(RunLimits::until(SimTime(kill_at)));
            let bytes = first.save_state().expect("clean engines must checkpoint");
            drop(first);

            // "Crash": rebuild from scratch — without re-installing the
            // fault plan (the checkpoint carries its unapplied tail).
            let mut restored = ring(shards, false, false);
            restored.load_state(&bytes).expect("own bytes must load");
            assert_eq!(restored.run(RunLimits::none()), StopReason::Quiescent);

            let at = format!("{shards} shards, kill at {kill_at}");
            assert_eq!(baseline.now(), restored.now(), "{at}");
            assert_eq!(baseline.stats(), restored.stats(), "{at}");
            assert_eq!(baseline.timeline(), restored.timeline(), "{at}");
        }
    }
}

#[test]
fn restore_inside_a_budget_cut_instant() {
    // An event budget can stop the run with part of an instant still
    // queued; the saved calendar must resume on exactly the next event.
    for shards in [1, 3] {
        let mut baseline = ring(shards, true, true);
        baseline.run(RunLimits::none());

        let mut first = ring(shards, true, true);
        let stop = first.run(RunLimits { deadline: None, max_events: Some(17) });
        assert_eq!((stop, first.stats().events), (StopReason::EventLimit, 17));
        let bytes = first.save_state().unwrap();

        let mut restored = ring(shards, false, false);
        restored.load_state(&bytes).unwrap();
        assert_eq!(restored.run(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(baseline.now(), restored.now(), "{shards} shards");
        assert_eq!(baseline.stats(), restored.stats(), "{shards} shards");
        assert_eq!(baseline.timeline(), restored.timeline(), "{shards} shards");
    }
}

struct NoTimers;

impl BarrierHook for NoTimers {
    fn on_barrier(&mut self, _now: SimTime) -> Vec<(NodeId, SimDuration, u64)> {
        Vec::new()
    }
}

#[test]
fn engine_refuses_traces_hooks_and_mismatched_shapes() {
    let mut traced = ring(1, false, false);
    traced.enable_trace();
    assert_eq!(traced.save_state().unwrap_err(), StateError::TraceActive);
    let mut hooked = ring(1, false, false);
    hooked.set_barrier_hook(Box::new(NoTimers));
    assert_eq!(hooked.save_state().unwrap_err(), StateError::BarrierActive);

    let two = ring(2, false, false);
    let bytes = two.save_state().unwrap();
    assert_eq!(traced.load_state(&bytes).unwrap_err(), StateError::TraceActive);
    assert_eq!(hooked.load_state(&bytes).unwrap_err(), StateError::BarrierActive);

    // Wrong node count.
    let mut small: Simulator<Token> = Simulator::with_shards(SEED, 2);
    small.add_node(Box::new(Relay { peer: 0, kick_off: 0 }));
    assert!(matches!(
        small.load_state(&bytes).unwrap_err(),
        StateError::NodeCountMismatch { expected: NODES, found: 1 }
    ));

    // Wrong shard count, in both directions: the bytes carry one
    // calendar per shard.
    for found in [1, 3] {
        let mut other = ring(found, false, false);
        assert_eq!(
            other.load_state(&bytes).unwrap_err(),
            StateError::ShardCountMismatch { expected: 2, found }
        );
    }
}

#[test]
fn corrupt_engine_state_is_rejected_without_panic() {
    for shards in [1, 2] {
        let mut sim = ring(shards, true, true);
        sim.run(RunLimits::until(SimTime(50_000)));
        let bytes = sim.save_state().unwrap();

        // Every strict prefix fails with a typed error.
        for cut in 0..bytes.len() {
            let mut target = ring(shards, false, false);
            let err = target.load_state(&bytes[..cut]).expect_err("truncation must fail");
            let _ = err.to_string();
        }
        // Trailing garbage fails.
        let mut extended = bytes.clone();
        extended.push(0);
        let mut target = ring(shards, false, false);
        assert!(target.load_state(&extended).is_err());

        // A failed load leaves the target untouched (still at t=0, still
        // able to run its own workload from scratch).
        let mut target = ring(shards, false, false);
        assert!(target.load_state(&bytes[..bytes.len() / 2]).is_err());
        assert_eq!(target.now(), SimTime::ZERO);
        target.run(RunLimits::none());
        let mut fresh = ring(shards, false, false);
        fresh.run(RunLimits::none());
        assert_eq!(target.stats(), fresh.stats());
    }
}
