//! The engine's independent oracle.
//!
//! [`Reference`] is the semantics the windowed engine must reproduce,
//! written the obvious way: one binary heap on `(time, sequence)`, one
//! event popped at a time, each callback's actions applied the moment
//! it returns. It shares no code with [`Simulator`] beyond the public
//! `Agent`/`Context`/`LinkConfig`/`Fault` types (and `Context`'s
//! crate-private constructor). Every test below builds one scenario
//! twice — reference and engine — and requires everything observable to
//! be equal at 1–4 shards with worker threads forced on, after every
//! slice of the run.

use crate::fault::{Fault, FaultPlan};
use crate::link::LinkConfig;
use crate::sim::{
    Action, Agent, BarrierHook, Context, Delivery, NodeId, Payload, RunLimits, SimStats, Simulator,
    StopReason,
};
use crate::time::{SimDuration, SimTime};
use proptest::prelude::*;
use pvr_crypto::drbg::HmacDrbg;
use pvr_obs::timeline::{SIM_CHANNELS, SIM_DELIVERED, SIM_EVENTS, SIM_QUEUE_DEPTH};
use pvr_obs::TimelineRecorder;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

enum Ev<P> {
    Deliver { src: NodeId, dst: NodeId, msg: P },
    Timer { node: NodeId, timer: u64 },
}

/// The reference interpreter.
#[derive(Default)]
struct Reference<P: Payload> {
    nodes: Vec<Box<dyn Agent<P>>>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    pending: HashMap<u64, Ev<P>>,
    next_seq: u64,
    now: SimTime,
    /// The link DRBG; `Some` from [`Reference::new`] on.
    rng: Option<HmacDrbg>,
    faults: VecDeque<(SimTime, Fault)>,
    paused: HashSet<NodeId>,
    started: bool,
    stats: SimStats,
    trace: Vec<Delivery<P>>,
    timeline: Option<TimelineRecorder>,
    hook: Option<Box<dyn BarrierHook>>,
}

impl<P: Payload + Default> Reference<P> {
    fn new(seed: u64) -> Reference<P> {
        let rng = Some(HmacDrbg::from_u64_labeled(seed, "netsim"));
        Reference { rng, ..Reference::default() }
    }
    fn add_node(&mut self, agent: Box<dyn Agent<P>>) {
        self.nodes.push(agent);
    }
    fn set_barrier_hook(&mut self, hook: Box<dyn BarrierHook>) {
        self.hook = Some(hook);
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        let mut schedule = plan.events().to_vec();
        schedule.sort_by_key(|&(t, _)| t); // stable: equal times keep insertion order
        self.faults = schedule.into();
    }
    fn link(&mut self, src: NodeId, dst: NodeId) -> &mut LinkConfig {
        self.links.entry((src, dst)).or_insert(self.default_link)
    }
    fn push(&mut self, at: SimTime, ev: Ev<P>) {
        self.heap.push(Reverse((at, self.next_seq)));
        self.pending.insert(self.next_seq, ev);
        self.next_seq += 1;
    }
    fn send(&mut self, src: NodeId, dst: NodeId, msg: P) {
        assert!(dst < self.nodes.len(), "send to unknown node {dst}");
        let cfg = *self.link(src, dst);
        self.stats.sent += 1;
        self.stats.bytes_sent += msg.wire_size() as u64;
        // A paused endpoint loses the message before any randomness is drawn.
        let paused = self.paused.contains(&src) || self.paused.contains(&dst);
        let rng = self.rng.as_mut().expect("seeded by new");
        if paused || cfg.down || (cfg.drop_prob > 0.0 && rng.chance(cfg.drop_prob)) {
            self.stats.dropped += 1;
            return;
        }
        let bound = cfg.jitter.as_micros();
        let jitter = if bound > 0 { rng.below(bound + 1) } else { 0 };
        let at = self.now + cfg.latency + SimDuration::from_micros(jitter);
        self.push(at, Ev::Deliver { src, dst, msg });
    }
    fn inject(&mut self, src: NodeId, dst: NodeId, msg: P) {
        self.stats.injected += 1;
        self.send(src, dst, msg);
    }
    /// One callback; its actions take effect before anything else runs.
    fn call(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Agent<P>, &mut Context<P>)) {
        let mut ctx = Context::renew(self.now, node as u32, Vec::new());
        f(self.nodes[node].as_mut(), &mut ctx);
        for (_, action) in ctx.into_actions().into_iter().flatten() {
            match action {
                Action::Send { to, msg } => self.send(node, to, msg),
                Action::SetTimer { delay, timer } => {
                    self.push(self.now + delay, Ev::Timer { node, timer });
                }
            }
        }
    }
    fn session(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.call(a, |agent, ctx| agent.on_session(ctx, b, up));
        self.call(b, |agent, ctx| agent.on_session(ctx, a, up));
    }
    fn fault(&mut self, fault: Fault) {
        match fault {
            Fault::LinkDown { a, b } | Fault::LinkUp { a, b } => {
                let up = matches!(fault, Fault::LinkUp { .. });
                *if up { &mut self.stats.link_up } else { &mut self.stats.link_down } += 1;
                self.link(a, b).down = !up;
                self.link(b, a).down = !up;
                self.session(a, b, up);
            }
            Fault::LinkDegrade { a, b, drop_prob, jitter } => {
                self.stats.link_degrades += 1;
                for (src, dst) in [(a, b), (b, a)] {
                    let cfg = self.link(src, dst);
                    (cfg.drop_prob, cfg.jitter) = (drop_prob, jitter);
                }
            }
            Fault::SessionReset { a, b } => {
                self.stats.session_resets += 1;
                self.session(a, b, false);
                self.session(a, b, true);
            }
            Fault::NodePause { node } => {
                self.stats.node_pauses += 1;
                self.paused.insert(node);
            }
            Fault::NodeResume { node } => drop(self.paused.remove(&node)),
        }
    }
    fn head(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }
    fn run(&mut self, limits: RunLimits) -> StopReason {
        if !std::mem::replace(&mut self.started, true) {
            for id in 0..self.nodes.len() {
                self.call(id, |agent, ctx| agent.on_start(ctx));
            }
        }
        loop {
            if limits.max_events.is_some_and(|max| self.stats.events >= max) {
                return StopReason::EventLimit;
            }
            // A plan installed late fires at once, never in the past.
            let fault_at = self.faults.front().map(|&(t, _)| t.max(self.now));
            let Some(time) = self.head().into_iter().chain(fault_at).min() else {
                return StopReason::Quiescent;
            };
            if limits.deadline.is_some_and(|deadline| time > deadline) {
                return StopReason::Deadline;
            }
            self.now = time;
            if fault_at == Some(time) {
                // Due faults come before any event of the same instant.
                while self.faults.front().is_some_and(|&(t, _)| t <= time) {
                    let (_, fault) = self.faults.pop_front().expect("front checked above");
                    self.fault(fault);
                }
                continue;
            }
            let Reverse((_, seq)) = self.heap.pop().expect("head checked above");
            self.stats.events += 1;
            let delivered = match self.pending.remove(&seq).expect("heap and map agree") {
                Ev::Deliver { src, dst, msg } => {
                    self.stats.delivered += 1;
                    self.trace.push(Delivery { time, src, dst, msg: msg.clone() });
                    self.call(dst, |agent, ctx| agent.on_message(ctx, src, msg));
                    1
                }
                Ev::Timer { node, timer } => {
                    self.stats.timers_fired += 1;
                    self.call(node, |agent, ctx| agent.on_timer(ctx, timer));
                    0
                }
            };
            // The instant has drained when nothing else is due at `time`:
            // sample the depth, then let the hook arm timers.
            let (at, drained) = (time.as_micros(), self.head() != Some(time));
            if let Some(tl) = &mut self.timeline {
                tl.add(at, SIM_EVENTS, 1);
                tl.add(at, SIM_DELIVERED, delivered);
                if drained {
                    tl.set(at, SIM_QUEUE_DEPTH, self.heap.len() as u64);
                }
            }
            if let (true, Some(hook)) = (drained, &mut self.hook) {
                for (node, delay, timer) in hook.on_barrier(time) {
                    self.push(time + delay, Ev::Timer { node, timer });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scenarios: one table-driven agent, one description of a whole run.

#[derive(Clone, Debug, Default, PartialEq)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> usize {
        4
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Send to `to`. In `on_message` the token is the incoming one
    /// minus one (so cascades die out); elsewhere it is `token`.
    Send { to: NodeId, token: u32 },
    /// Arm timer `id` (while the agent's timer budget lasts).
    Timer { delay_us: u64, id: u64 },
}

/// An agent whose behaviour is data and whose every callback is logged.
#[derive(Clone, Debug, Default)]
struct Scripted {
    on_start: Vec<Op>,
    /// Reaction to a non-zero token `v`: `on_msg[v % len]`.
    on_msg: Vec<Vec<Op>>,
    /// Reaction to timer `id`: `on_timer[id % len]`.
    on_timer: Vec<Vec<Op>>,
    /// Token sent to the peer whenever a session comes up.
    session_token: Option<u32>,
    timer_budget: u32,
    /// `(now, callback, a, b)`.
    log: Vec<(SimTime, &'static str, u64, u64)>,
}

impl Scripted {
    fn perform(&mut self, ctx: &mut Context<Token>, ops: &[Op], incoming: Option<u32>) {
        for op in ops {
            match *op {
                Op::Send { to, token } => ctx.send(to, Token(incoming.map_or(token, |v| v - 1))),
                Op::Timer { delay_us, id } if self.timer_budget > 0 => {
                    self.timer_budget -= 1;
                    ctx.set_timer(SimDuration::from_micros(delay_us), id);
                }
                Op::Timer { .. } => {}
            }
        }
    }

    fn pick(table: &[Vec<Op>], key: u64) -> Vec<Op> {
        if table.is_empty() {
            return Vec::new();
        }
        table[(key % table.len() as u64) as usize].clone()
    }
}

impl Agent<Token> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        self.log.push((ctx.now(), "start", ctx.id() as u64, 0));
        let ops = self.on_start.clone();
        self.perform(ctx, &ops, None);
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, from: NodeId, msg: Token) {
        self.log.push((ctx.now(), "message", from as u64, u64::from(msg.0)));
        if msg.0 > 0 {
            let ops = Scripted::pick(&self.on_msg, u64::from(msg.0));
            self.perform(ctx, &ops, Some(msg.0));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<Token>, timer: u64) {
        self.log.push((ctx.now(), "timer", timer, 0));
        let ops = Scripted::pick(&self.on_timer, timer);
        self.perform(ctx, &ops, None);
    }
    fn on_session(&mut self, ctx: &mut Context<Token>, peer: NodeId, up: bool) {
        self.log.push((ctx.now(), "session", peer as u64, u64::from(up)));
        if let (true, Some(token)) = (up, self.session_token) {
            ctx.send(peer, Token(token));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A barrier hook that logs its firing instants and answers the k-th
/// firing with the k-th scripted timer (none once they run out).
struct CountingHook {
    fired: Arc<Mutex<Vec<SimTime>>>,
    timers: Vec<(NodeId, u64, u64)>,
}

impl BarrierHook for CountingHook {
    fn on_barrier(&mut self, now: SimTime) -> Vec<(NodeId, SimDuration, u64)> {
        let mut fired = self.fired.lock().expect("no test thread panics holding the log");
        fired.push(now);
        self.timers
            .get(fired.len() - 1)
            .map(|&(node, delay_us, id)| (node, SimDuration::from_micros(delay_us), id))
            .into_iter()
            .collect()
    }
}

/// One slice of a run: stop after `more_events` further events and/or
/// at `deadline`, then inject a message from outside.
#[derive(Clone, Debug, Default)]
struct Slice {
    more_events: Option<u64>,
    deadline: Option<SimTime>,
    then_inject: Option<(NodeId, NodeId, u32)>,
}

/// A whole run. After the listed slices it runs to quiescence.
#[derive(Clone, Debug, Default)]
struct Scenario {
    seed: u64,
    agents: Vec<Scripted>,
    /// Per agent, the engine puts it on shard `placement % shards`;
    /// agents past the end are dealt round-robin. The reference has no
    /// shards.
    placement: Vec<usize>,
    default_link: LinkConfig,
    links: Vec<(NodeId, NodeId, LinkConfig)>,
    plan: FaultPlan,
    /// `Some(timers)` installs a [`CountingHook`].
    hook: Option<Vec<(NodeId, u64, u64)>>,
    timeline: Option<SimDuration>,
    slices: Vec<Slice>,
}

/// Everything observable after one slice.
#[derive(Debug, PartialEq)]
struct Observed {
    stop: StopReason,
    now: SimTime,
    stats: SimStats,
    trace: Vec<(SimTime, NodeId, NodeId, u32)>,
    logs: Vec<Vec<(SimTime, &'static str, u64, u64)>>,
    timeline: Option<BTreeMap<u64, Vec<u64>>>,
    hook_fired: Vec<SimTime>,
}

/// Adds `$sc`'s plan and hook to `$sim` (which holds its agents),
/// drives it through the slices, and collects `$observe(&$sim, stop,
/// hook_fired)` after each.
/// A macro because the engine and the reference share method names,
/// not a trait.
macro_rules! drive {
    ($sim:ident, $sc:expr, $observe:expr) => {{
        let sc: &Scenario = $sc;
        let fired = Arc::new(Mutex::new(Vec::new()));
        $sim.set_fault_plan(sc.plan.clone());
        if let Some(timers) = &sc.hook {
            $sim.set_barrier_hook(Box::new(CountingHook {
                fired: Arc::clone(&fired),
                timers: timers.clone(),
            }));
        }
        let mut observed: Vec<Observed> = Vec::new();
        for slice in sc.slices.iter().cloned().chain([Slice::default()]) {
            let events = observed.last().map_or(0, |o| o.stats.events);
            let stop = $sim.run(RunLimits {
                deadline: slice.deadline,
                max_events: slice.more_events.map(|n| events + n),
            });
            let hook_fired = fired.lock().expect("hook does not panic").clone();
            observed.push($observe(&$sim, stop, hook_fired));
            if let Some((src, dst, token)) = slice.then_inject {
                $sim.inject(src, dst, Token(token));
            }
        }
        assert_eq!(observed.last().map(|o| o.stop), Some(StopReason::Quiescent));
        observed
    }};
}

fn trace_view(trace: &[Delivery<Token>]) -> Vec<(SimTime, NodeId, NodeId, u32)> {
    trace.iter().map(|d| (d.time, d.src, d.dst, d.msg.0)).collect()
}

fn log_of(agent: &dyn Any) -> Vec<(SimTime, &'static str, u64, u64)> {
    agent.downcast_ref::<Scripted>().expect("every scenario agent is scripted").log.clone()
}

fn run_reference(sc: &Scenario) -> Vec<Observed> {
    let mut sim: Reference<Token> = Reference::new(sc.seed);
    sim.default_link = sc.default_link;
    sim.links = sc.links.iter().map(|&(src, dst, cfg)| ((src, dst), cfg)).collect();
    sim.timeline = sc.timeline.map(|w| TimelineRecorder::new(w.as_micros(), SIM_CHANNELS));
    for agent in &sc.agents {
        sim.add_node(Box::new(agent.clone()));
    }
    drive!(sim, sc, |sim: &Reference<Token>, stop, hook_fired| Observed {
        stop,
        now: sim.now,
        stats: sim.stats.clone(),
        trace: trace_view(&sim.trace),
        logs: sim.nodes.iter().map(|n| log_of(n.as_any())).collect(),
        timeline: sim.timeline.as_ref().map(|tl| tl.cells().clone()),
        hook_fired,
    })
}

fn run_engine(sc: &Scenario, shards: usize) -> Vec<Observed> {
    let mut sim: Simulator<Token> = Simulator::with_shards(sc.seed, shards);
    sim.spawn_threshold = 1; // every multi-shard window goes through worker threads
    sim.set_default_link(sc.default_link);
    for &(src, dst, cfg) in &sc.links {
        sim.set_link(src, dst, cfg);
    }
    if let Some(window) = sc.timeline {
        sim.enable_timeline(window);
    }
    sim.enable_trace();
    for (id, agent) in sc.agents.iter().enumerate() {
        let spot = sc.placement.get(id).copied().unwrap_or(id);
        sim.add_node_to_shard(Box::new(agent.clone()), spot % shards);
    }
    drive!(sim, sc, |sim: &Simulator<Token>, stop, hook_fired| Observed {
        stop,
        now: sim.now(),
        stats: sim.stats().clone(),
        trace: trace_view(sim.trace().expect("trace enabled")),
        logs: (0..sim.node_count())
            .map(|id| log_of(sim.node::<Scripted>(id).expect("scripted")))
            .collect(),
        timeline: sim.timeline().map(|tl| tl.cells().clone()),
        hook_fired,
    })
}

/// The comparison every test in this module goes through.
fn check(sc: &Scenario) {
    let expected = run_reference(sc);
    for shards in 1..=4 {
        assert_eq!(run_engine(sc, shards), expected, "{shards} shards, scenario {sc:#?}");
    }
}

// ---------------------------------------------------------------------
// Hand-written scenarios.

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// A ring of `n` relays passing a token down from `start` at node 0.
fn ring(n: usize, start: u32) -> Vec<Scripted> {
    (0..n)
        .map(|i| {
            let to = (i + 1) % n;
            Scripted {
                on_start: if i == 0 { vec![Op::Send { to, token: start }] } else { vec![] },
                on_msg: vec![vec![Op::Send { to, token: 0 }]],
                ..Scripted::default()
            }
        })
        .collect()
}

#[test]
fn ring_on_clean_jittered_and_lossy_links() {
    let links = [
        LinkConfig::default(),
        LinkConfig::with_latency(ms(1)).jittered(us(700)),
        LinkConfig::with_latency(ms(2)).jittered(us(300)).lossy(0.3),
    ];
    for default_link in links {
        for seed in [1, 3, 7, 11, 42] {
            check(&Scenario { seed, agents: ring(4, 8), default_link, ..Scenario::default() });
        }
    }
}

#[test]
fn zero_latency_cascades_stay_in_sequence_order() {
    // Zero-latency sends land in the window being drained and must run
    // after everything already pending at that instant.
    let sc = Scenario {
        seed: 5,
        agents: ring(4, 8),
        default_link: LinkConfig::with_latency(SimDuration::ZERO),
        timeline: Some(ms(5)),
        hook: Some(vec![]),
        ..Scenario::default()
    };
    check(&sc);
    // ... including when a budget cuts the instant in two.
    let cut = |n| Slice { more_events: Some(n), ..Slice::default() };
    check(&Scenario { slices: vec![cut(1), cut(3), cut(2)], ..sc });
}

#[test]
fn timers_fire_in_order_and_send() {
    let node = |peer| Scripted {
        on_start: vec![Op::Timer { delay_us: 5_000, id: 42 }, Op::Timer { delay_us: 1_000, id: 7 }],
        on_timer: vec![vec![], vec![Op::Send { to: peer, token: 1 }]],
        timer_budget: 2,
        ..Scripted::default()
    };
    check(&Scenario { seed: 9, agents: vec![node(1), node(0)], ..Scenario::default() });
}

#[test]
fn deadline_stop_and_resume() {
    check(&Scenario {
        seed: 5,
        agents: ring(2, 8),
        slices: vec![Slice { deadline: Some(SimTime(25_000)), ..Slice::default() }],
        ..Scenario::default()
    });
}

#[test]
fn injection_between_slices() {
    check(&Scenario {
        seed: 2,
        agents: ring(2, 0),
        slices: vec![Slice { then_inject: Some((0, 1, 3)), ..Slice::default() }],
        ..Scenario::default()
    });
}

#[test]
fn timeline_cells_are_equal() {
    // Sim channels (events, deliveries, queue-depth samples) must be
    // *equal*, including under jitter and zero-latency cascades.
    for default_link in [
        LinkConfig::default(),
        LinkConfig::with_latency(SimDuration::ZERO),
        LinkConfig::with_latency(ms(1)).jittered(us(700)),
    ] {
        check(&Scenario {
            seed: 7,
            agents: ring(4, 8),
            default_link,
            timeline: Some(ms(5)),
            ..Scenario::default()
        });
    }
}

#[test]
fn fault_plan_with_session_callbacks() {
    // Echo agents that re-send to a restored peer — a miniature of the
    // BGP re-announce flow — under flaps, a pause, a reset and a ramp.
    let mut plan = FaultPlan::new();
    plan.flap_link(0, 1, SimTime(15_000), ms(30), ms(60), 2);
    plan.push(SimTime(25_000), Fault::NodePause { node: 2 });
    plan.push(SimTime(55_000), Fault::NodeResume { node: 2 });
    plan.push(SimTime(70_000), Fault::SessionReset { a: 2, b: 3 });
    plan.push(SimTime(80_000), Fault::LinkDegrade { a: 1, b: 2, drop_prob: 0.4, jitter: us(300) });
    let mut agents = ring(4, 40);
    for agent in &mut agents {
        agent.session_token = Some(5);
    }
    let sc = Scenario { seed: 13, agents, plan, ..Scenario::default() };
    let end = run_reference(&sc).pop().expect("one slice");
    assert!(end.stats.link_down > 0, "plan must actually fire");
    assert_eq!(end.stats.session_resets, 1);
    check(&sc);
}

#[test]
fn paused_node_drops_traffic() {
    let sc = Scenario {
        seed: 3,
        agents: ring(2, 5),
        plan: FaultPlan::new()
            .at(SimTime(0), Fault::NodePause { node: 1 })
            .at(SimTime(100_000), Fault::NodeResume { node: 1 }),
        ..Scenario::default()
    };
    // Start-up precedes the t=0 fault, so the kick-off is already in
    // flight (in-flight deliveries survive a pause); the paused node's
    // reply is what gets dropped.
    let end = run_reference(&sc).pop().expect("one slice");
    assert_eq!((end.stats.delivered, end.stats.dropped, end.stats.node_pauses), (1, 1, 1));
    check(&sc);
}

#[test]
fn crowded_instants_dispatch_node_by_node() {
    // Every node sends to each of three hot nodes, in an order that
    // rotates with its id, so the hot nodes' deliveries interleave in
    // sequence order. Hot nodes arm timers for that same instant and
    // answer over zero-latency links, so cascades crowd it again.
    const N: usize = 24;
    const HOT: [NodeId; 3] = [5, 11, 17];
    let agents = (0..N)
        .map(|i| {
            let hot = HOT.contains(&i);
            let mut on_start: Vec<Op> =
                (0..3).map(|k| Op::Send { to: HOT[(i + k) % 3], token: 3 }).collect();
            let (on_msg, on_timer) = if hot {
                on_start.extend((0..4).map(|id| Op::Timer { delay_us: 1_000, id }));
                let answer = vec![
                    Op::Send { to: HOT[0], token: 0 },
                    Op::Send { to: (i + 1) % N, token: 0 },
                    Op::Timer { delay_us: 0, id: 9 },
                ];
                (vec![answer], vec![vec![Op::Send { to: HOT[1], token: 1 }]])
            } else {
                (vec![vec![Op::Send { to: HOT[2], token: 0 }]], vec![])
            };
            Scripted { on_start, on_msg, on_timer, timer_budget: 8, ..Scripted::default() }
        })
        .collect();
    let zero = LinkConfig::with_latency(SimDuration::ZERO);
    let links = HOT.iter().flat_map(|&h| [(h, HOT[0], zero), (h, (h + 1) % N, zero)]).collect();
    let sc = Scenario {
        seed: 17,
        agents,
        default_link: LinkConfig::with_latency(ms(1)),
        links,
        timeline: Some(ms(1)),
        hook: Some(vec![]),
        ..Scenario::default()
    };
    let end = run_reference(&sc).pop().expect("one slice");
    assert!(end.stats.events > 300, "the instants must be crowded: {}", end.stats.events);
    check(&sc);
    // Jitter draws follow the exchange order; budgets cut windows
    // between two events of one node.
    let jittered = LinkConfig::with_latency(ms(1)).jittered(us(2));
    check(&Scenario { default_link: jittered, ..sc.clone() });
    let cut = |n| Slice { more_events: Some(n), ..Slice::default() };
    check(&Scenario { slices: vec![cut(5), cut(40), cut(17), cut(90)], ..sc });
}

// ---------------------------------------------------------------------
// Random scenarios.

/// Draws a whole scenario from `seed`: fan-out scripts, timers,
/// zero-latency links, loss and jitter, a fault plan, a counting hook,
/// and a slicing of the run into event budgets and deadlines. One
/// scenario in three is *crowded*: 16–64 nodes whose sends mostly go to
/// one to three hot nodes, so an instant holds many events per node,
/// interleaved by destination, and budgets cut such instants mid-way.
/// Agents are placed on shards at random, so a shard's local order is
/// not the global node order.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "oracle-scenario");
    let mut below = |n: u64| rng.below(n);
    // Few distinct latencies, so windows hold several events.
    let latency = |pick: u64| [SimDuration::ZERO, ms(1), ms(1), ms(2), ms(5)][pick as usize];
    let link = |below: &mut dyn FnMut(u64) -> u64| {
        let mut cfg = LinkConfig::with_latency(latency(below(5)));
        if below(3) == 0 {
            cfg = cfg.jittered(us(below(4)));
        }
        if below(4) == 0 {
            cfg = cfg.lossy(below(4) as f64 / 10.0);
        }
        cfg
    };

    let crowded = below(3) == 0;
    let n = if crowded { 16 + below(49) as usize } else { 2 + below(5) as usize };
    let hot = 1 + below(3);
    let node = |below: &mut dyn FnMut(u64) -> u64| {
        let pool = if crowded && below(4) != 0 { hot } else { n as u64 };
        below(pool) as usize
    };
    // Crowded cascades stay short: tokens of at most 2, two reactions.
    let (tokens, reactions) = if crowded { (1, 2) } else { (6, 3) };
    let ops = |below: &mut dyn FnMut(u64) -> u64, max: u64| -> Vec<Op> {
        (0..below(max + 1))
            .map(|_| match below(3) {
                0 => {
                    Op::Timer { delay_us: [0, 500, 1_000, 3_000][below(4) as usize], id: below(5) }
                }
                _ => Op::Send { to: node(below), token: 2 + below(tokens) as u32 },
            })
            .collect()
    };
    let agents = (0..n)
        .map(|_| Scripted {
            on_start: ops(&mut below, 4),
            on_msg: (0..1 + below(3)).map(|_| ops(&mut below, reactions)).collect(),
            on_timer: (0..below(3)).map(|_| ops(&mut below, reactions)).collect(),
            session_token: (below(2) == 0).then(|| 1 + below(4) as u32),
            timer_budget: below(6) as u32,
            log: Vec::new(),
        })
        .collect();

    let default_link = link(&mut below);
    let links = (0..below(4)).map(|_| (node(&mut below), node(&mut below), link(&mut below)));
    let links = links.collect();

    let mut plan = FaultPlan::new();
    for _ in 0..below(5) {
        let (a, b) = (node(&mut below), node(&mut below));
        let at = SimTime(below(12) * 1_000);
        match below(5) {
            0 => plan.flap_link(a, b, at, ms(1 + below(3)), ms(5), 1 + below(2) as usize),
            1 => {
                plan.push(at, Fault::NodePause { node: a });
                plan.push(at + ms(1 + below(6)), Fault::NodeResume { node: a });
            }
            2 => plan.push(at, Fault::SessionReset { a, b }),
            3 => {
                let drop_prob = below(5) as f64 / 10.0;
                plan.push(at, Fault::LinkDegrade { a, b, drop_prob, jitter: us(below(3)) });
            }
            _ => plan.push(at, Fault::LinkUp { a, b }),
        }
    }

    let hook = (below(2) == 0).then(|| {
        (0..below(4)).map(|_| (node(&mut below), [0, 1_000][below(2) as usize], below(5))).collect()
    });
    let budget = if crowded { 200 } else { 40 };
    let slices = (0..below(5))
        .map(|_| Slice {
            more_events: (below(3) != 0).then(|| 1 + below(budget)),
            deadline: (below(3) == 0).then(|| SimTime(below(15) * 1_000)),
            then_inject: (below(4) == 0)
                .then(|| (node(&mut below), node(&mut below), 1 + below(4) as u32)),
        })
        .collect();
    let timeline = (below(2) == 0).then(|| ms(1 + below(4)));
    // Twelve spots deal evenly over one to four shards.
    let placement = (0..n).map(|_| below(12) as usize).collect();
    Scenario { seed, agents, placement, default_link, links, plan, hook, timeline, slices }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn engine_matches_reference(seed in any::<u64>()) {
        check(&random_scenario(seed));
    }
}
