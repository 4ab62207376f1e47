//! The discrete-event engine.
//!
//! One engine at every shard count. [`Simulator`] partitions its nodes
//! across shards, each with its own time-bucketed calendar of
//! `(sequence-number, event)` pairs, and runs in lockstep *time
//! windows*: every event pending at the earliest timestamp is
//! dispatched (one shard on the coordinator and a worker per other
//! shard under `std::thread::scope` when the window is large enough,
//! all inline otherwise), then a serial exchange
//! applies the actions the agents produced in `(cause-sequence,
//! action-index)` order — the order an engine that applied each event's
//! actions before popping the next would have used. [`Simulator::new`]
//! is the 1-shard case of the same loop, not a second implementation.
//!
//! Determinism rules:
//! * events are ordered by `(time, sequence-number)`; sequence numbers
//!   are assigned in the serial exchange, never by map iteration or
//!   thread scheduling;
//! * link randomness (jitter, drops) comes from one seeded [`HmacDrbg`]
//!   consumed only in the exchange — the engine hands agents no
//!   randomness at all, so no agent can make outputs depend on the
//!   shard count (agents that need some own a labelled DRBG);
//! * agents only interact with the world through [`Context`].
//!
//! DESIGN.md, "The engine", carries the full ordering argument; the
//! `oracle` test module pins it against a reference interpreter.

use crate::calendar::EventQueue;
use crate::fault::{Fault, FaultInjector, FaultPlan};
use crate::link::LinkConfig;
use crate::time::{SimDuration, SimTime};
use pvr_crypto::drbg::HmacDrbg;
use std::any::Any;
use std::collections::HashMap;

/// Index of a node within the simulator.
pub type NodeId = usize;

/// Payloads must expose their serialized size for overhead accounting
/// (experiments E5/E8/E14 report bytes on the wire).
///
/// Contract for internet-scale runs: both required operations sit on
/// the per-message hot path, so `Clone` should be O(1)-ish (share large
/// attribute data behind `Arc`s, as `pvr-bgp`'s routes and attestation
/// chains do) and `wire_size` should be arithmetic — computed from the
/// payload's shape, never by encoding it. The simulator calls
/// `wire_size` on every send and `clone` on every traced delivery.
/// `Send` because a window's events are dispatched on worker threads.
pub trait Payload: Clone + Send + 'static {
    /// Serialized size in bytes.
    fn wire_size(&self) -> usize;
}

/// A protocol participant.
///
/// `on_message` / `on_timer` receive a [`Context`] through which the
/// agent sends messages and arms timers; mutations are applied by the
/// simulator after the callback returns, preserving determinism.
/// `Send` because each shard's agents run on that shard's worker.
pub trait Agent<P: Payload>: Any + Send {
    /// Called once before the first event is processed.
    fn on_start(&mut self, _ctx: &mut Context<P>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Context<P>, from: NodeId, msg: P);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<P>, _timer: u64) {}

    /// Called when the fault layer changes this node's session state
    /// toward `peer`: `up == false` on link-down/session-teardown,
    /// `up == true` on recovery. Default: ignore (non-session
    /// protocols are unaffected by fault plans).
    fn on_session(&mut self, _ctx: &mut Context<P>, _peer: NodeId, _up: bool) {}

    /// Downcast support (simulators are heterogeneous collections).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The API surface agents see during a callback.
pub struct Context<P> {
    now: SimTime,
    self_id: u32,
    /// What the actions are keyed by (see [`OutboxEntry`]).
    cause: u64,
    /// The buffer the actions land in — a shard's outbox, lent for the
    /// callback — and its length when the callback began.
    out: Vec<OutboxEntry<P>>,
    first: usize,
}

pub(crate) enum Action<P> {
    Send { to: NodeId, msg: P },
    SetTimer { delay: SimDuration, timer: u64 },
}

/// One buffered agent action awaiting the exchange: `(cause, index
/// within the callback, acting node, action)`. The cause is the
/// triggering event's sequence number (the node id during start-up).
pub(crate) type OutboxEntry<P> = (u64, u32, u32, Action<P>);

impl<P> Context<P> {
    /// Builds a callback context for node `self_id` that appends its
    /// actions to `out`, keyed by `cause`.
    pub(crate) fn renew(
        now: SimTime,
        self_id: u32,
        cause: u64,
        out: Vec<OutboxEntry<P>>,
    ) -> Context<P> {
        Context { now, self_id, cause, first: out.len(), out }
    }

    /// Consumes the context, returning the buffer with this callback's
    /// actions appended in the order the agent issued them.
    pub(crate) fn into_actions(self) -> Vec<OutboxEntry<P>> {
        self.out
    }

    fn push(&mut self, action: Action<P>) {
        let idx = (self.out.len() - self.first) as u32;
        self.out.push((self.cause, idx, self.self_id, action));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's own id.
    pub fn id(&self) -> NodeId {
        self.self_id as NodeId
    }

    /// Sends `msg` to `to` over the configured link.
    pub fn send(&mut self, to: NodeId, msg: P) {
        self.push(Action::Send { to, msg });
    }

    /// Arms a one-shot timer; `timer` is returned in `on_timer`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: u64) {
        self.push(Action::SetTimer { delay, timer });
    }
}

/// One delivered message, as recorded by the trace. Payloads are cloned
/// into the trace — cheap by the [`Payload`] contract, so tracing an
/// internet-scale run no longer copies attribute bytes per delivery.
#[derive(Clone, Debug)]
pub struct Delivery<P> {
    /// Delivery time.
    pub time: SimTime,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// The payload.
    pub msg: P,
}

pvr_obs::metric_struct! {
    /// Aggregate counters for a run.
    ///
    /// Declared through [`pvr_obs::metric_struct!`], so the struct, its
    /// `add` fold, and its registry export (counters named
    /// `pvr_sim_<field>_total`) are generated from one field list and
    /// can never drift apart.
    pub struct SimStats, prefix = "pvr_sim" {
        /// Messages handed to the network by agents.
        pub sent: u64,
        /// Messages delivered to agents.
        pub delivered: u64,
        /// Messages dropped by lossy/down links.
        pub dropped: u64,
        /// Sum of payload wire sizes for sent messages.
        pub bytes_sent: u64,
        /// Timer firings.
        pub timers_fired: u64,
        /// Total events processed.
        pub events: u64,
        /// Messages injected from outside the simulation (attack campaigns,
        /// test harnesses) via [`Simulator::inject`].
        pub injected: u64,
        /// Link-down faults applied by the fault plan.
        pub link_down: u64,
        /// Link-up (recovery) faults applied by the fault plan.
        pub link_up: u64,
        /// Link-degrade (loss/jitter ramp) faults applied.
        pub link_degrades: u64,
        /// Session-reset faults applied by the fault plan.
        pub session_resets: u64,
        /// Node-pause faults applied by the fault plan.
        pub node_pauses: u64,
    }
}

/// A queued event. Node ids are `u32` here (the node count is asserted
/// to fit) so the sequence number riding beside each event costs the
/// calendar no extra bytes over two `usize` ids.
pub(crate) enum EventKind<P> {
    Deliver { src: u32, dst: u32, msg: P },
    Timer { node: u32, timer: u64 },
}

/// A calendar entry: global sequence number plus event.
pub(crate) type Queued<P> = (u64, EventKind<P>);

/// A network-level barrier callback, fired whenever a sim-time instant
/// fully drains (no further event is scheduled at the current `now`).
///
/// A drained instant is a property of the `(time, sequence-number)`
/// order, not of how windows were cut, so a hook fired there — and any
/// timers it schedules — is the same at every shard count and under any
/// slicing of the run. Fault-only instants never fire the hook.
///
/// The returned `(node, delay, timer)` triples are scheduled exactly as
/// if each node had called `SetTimer` itself, in the returned order. A
/// hook that returns an empty vec at an empty queue lets the run go
/// quiescent; returned timers keep it alive.
pub trait BarrierHook: Send {
    /// Called at each drained instant; returns timers to schedule.
    fn on_barrier(&mut self, now: SimTime) -> Vec<(NodeId, SimDuration, u64)>;
}

/// A node partition with its own calendar and counters.
struct Shard<P: Payload> {
    nodes: Vec<Box<dyn Agent<P>>>,
    /// Global node id per local index (ascending).
    node_ids: Vec<u32>,
    queue: EventQueue<Queued<P>>,
    /// Actions produced this window, sorted by construction.
    outbox: Vec<OutboxEntry<P>>,
    /// This window's traced deliveries, tagged with their sequence
    /// numbers.
    trace: Vec<(u64, Delivery<P>)>,
    events: u64,
    delivered: u64,
    timers_fired: u64,
}

impl<P: Payload> Shard<P> {
    fn new() -> Shard<P> {
        Shard {
            nodes: Vec::new(),
            node_ids: Vec::new(),
            queue: EventQueue::new(),
            outbox: Vec::new(),
            trace: Vec::new(),
            events: 0,
            delivered: 0,
            timers_fired: 0,
        }
    }

    /// Runs one agent callback, which appends its actions to the
    /// outbox keyed by `cause`.
    fn dispatch<F>(&mut self, local: usize, cause: u64, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Agent<P>, &mut Context<P>),
    {
        let outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Context::renew(now, self.node_ids[local], cause, outbox);
        f(self.nodes[local].as_mut(), &mut ctx);
        self.outbox = ctx.into_actions();
    }

    /// Dispatches `on_start` for every local node (ascending global id).
    fn run_starts(&mut self, now: SimTime) {
        for local in 0..self.nodes.len() {
            let cause = u64::from(self.node_ids[local]);
            self.dispatch(local, cause, now, |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Dispatches, in sequence order, every local event scheduled
    /// exactly at `time` whose sequence number is below `cutoff`.
    fn run_bucket(&mut self, time: SimTime, cutoff: u64, node_local: &[u32], trace: bool) {
        let Some(mut bucket) = self.queue.take_head(time) else { return };
        while let Some((seq, kind)) = bucket.pop_front_if(|&(seq, _)| seq < cutoff) {
            self.events += 1;
            match kind {
                EventKind::Deliver { src, dst, msg } => {
                    self.delivered += 1;
                    let (src, dst) = (src as NodeId, dst as NodeId);
                    if trace {
                        self.trace.push((seq, Delivery { time, src, dst, msg: msg.clone() }));
                    }
                    let local = node_local[dst] as usize;
                    self.dispatch(local, seq, time, |agent, ctx| agent.on_message(ctx, src, msg));
                }
                EventKind::Timer { node, timer } => {
                    self.timers_fired += 1;
                    let local = node_local[node as usize] as usize;
                    self.dispatch(local, seq, time, |agent, ctx| agent.on_timer(ctx, timer));
                }
            }
        }
        self.queue.put_back(time, bucket);
    }
}

/// The simulator: nodes, links, clock, calendars, stats, and optional
/// trace. Same seed ⇒ same stats, same trace, same final agent state,
/// at any shard count and under any slicing of the run into
/// [`RunLimits`].
pub struct Simulator<P: Payload> {
    shards: Vec<Shard<P>>,
    /// Shard index per global node id.
    node_shard: Vec<u32>,
    /// Index within its shard per global node id.
    node_local: Vec<u32>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    now: SimTime,
    /// The link DRBG, consumed only by the serial exchange.
    rng: HmacDrbg,
    /// Next global event sequence number.
    next_seq: u64,
    stats: SimStats,
    trace: Option<Vec<Delivery<P>>>,
    /// Optional convergence-timeline recorder (sim-time windows; see
    /// `pvr_obs::timeline`). Stamped exclusively with sim time and
    /// maintained between windows only — the sim-time-only tracing rule
    /// — so enabling it cannot perturb determinism.
    timeline: Option<pvr_obs::TimelineRecorder>,
    started: bool,
    /// Minimum events in a window before worker threads are spawned;
    /// smaller windows dispatch inline (identical output either way).
    spawn_threshold: usize,
    /// Recycled merge buffer for the exchange.
    merged: Vec<OutboxEntry<P>>,
    /// Scheduled fault events, if a plan was installed.
    faults: Option<FaultInjector>,
    /// Per-node pause flags (see [`Fault::NodePause`]).
    paused: Vec<bool>,
    /// Optional drained-instant callback (see [`BarrierHook`]).
    barrier: Option<Box<dyn BarrierHook>>,
}

impl<P: Payload> Simulator<P> {
    /// Creates a one-shard simulator with the given seed (all
    /// randomness derives from it) and a default link configuration.
    pub fn new(seed: u64) -> Simulator<P> {
        Simulator::with_shards(seed, 1)
    }

    /// Creates a simulator whose nodes are spread over `shards` worker
    /// calendars (clamped to at least 1). Outputs do not depend on the
    /// shard count or on node placement.
    pub fn with_shards(seed: u64, shards: usize) -> Simulator<P> {
        Simulator {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            node_shard: Vec::new(),
            node_local: Vec::new(),
            links: HashMap::new(),
            default_link: LinkConfig::default(),
            now: SimTime::ZERO,
            rng: HmacDrbg::from_u64_labeled(seed, "netsim"),
            next_seq: 0,
            stats: SimStats::default(),
            trace: None,
            timeline: None,
            started: false,
            spawn_threshold: 16,
            merged: Vec::new(),
            faults: None,
            paused: Vec::new(),
            barrier: None,
        }
    }

    /// Installs a [`BarrierHook`], replacing any previous one. The hook
    /// fires at every drained sim-time instant from then on.
    pub fn set_barrier_hook(&mut self, hook: Box<dyn BarrierHook>) {
        self.barrier = Some(hook);
    }

    /// Adds a node on an explicit shard, returning its global id.
    pub fn add_node_to_shard(&mut self, agent: Box<dyn Agent<P>>, shard: usize) -> NodeId {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        let id = self.node_shard.len();
        let id32 = u32::try_from(id).expect("node ids fit in u32");
        let s = &mut self.shards[shard];
        self.node_shard.push(shard as u32);
        self.node_local.push(s.nodes.len() as u32);
        self.paused.push(false);
        s.nodes.push(agent);
        s.node_ids.push(id32);
        id
    }

    /// Adds a node round-robin across shards, returning its global id.
    pub fn add_node(&mut self, agent: Box<dyn Agent<P>>) -> NodeId {
        let shard = self.node_shard.len() % self.shards.len();
        self.add_node_to_shard(agent, shard)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_shard.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a node lives on.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node] as usize
    }

    /// Sets the link configuration used when no per-pair config exists.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.default_link = cfg;
    }

    /// Configures the directed link `src → dst`.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        self.links.insert((src, dst), cfg);
    }

    /// Configures both directions between `a` and `b`.
    pub fn set_link_bidi(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.set_link(a, b, cfg);
        self.set_link(b, a, cfg);
    }

    /// Takes a directed link down (partition).
    pub fn set_link_down(&mut self, src: NodeId, dst: NodeId, down: bool) {
        let mut cfg = self.link_config(src, dst);
        cfg.down = down;
        self.links.insert((src, dst), cfg);
    }

    /// Installs a fault plan. Faults fire at their scheduled sim times,
    /// before any queued event at the same instant; faults scheduled in
    /// the past fire immediately. Replaces any previous plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan.into_injector());
    }

    fn link_config(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.links.get(&(src, dst)).copied().unwrap_or(self.default_link)
    }

    /// Tunes the inline/parallel cutover: windows with fewer events than
    /// this are dispatched on the coordinator thread. Lower it when per
    /// event work is heavy (e.g. RSA verification), raise it for cheap
    /// payloads. Has no effect on outputs.
    pub fn set_spawn_threshold(&mut self, events: usize) {
        self.spawn_threshold = events;
    }

    /// Enables trace recording (for audits and debugging).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace — deliveries in `(time, sequence-number)`
    /// order — if enabled.
    pub fn trace(&self) -> Option<&[Delivery<P>]> {
        self.trace.as_deref()
    }

    /// Enables the convergence-timeline recorder with `window`-wide
    /// sim-time windows. Events and deliveries are counted into the
    /// window containing their processing time; queue depth is sampled
    /// whenever a sim-time instant fully drains.
    pub fn enable_timeline(&mut self, window: SimDuration) {
        if self.timeline.is_none() {
            self.timeline = Some(pvr_obs::TimelineRecorder::new(
                window.as_micros(),
                pvr_obs::timeline::SIM_CHANNELS,
            ));
        }
    }

    /// The timeline recorder, if enabled.
    pub fn timeline(&self) -> Option<&pvr_obs::TimelineRecorder> {
        self.timeline.as_ref()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Injects a message from outside the simulation (e.g. a test
    /// harness kicking off a round, or an attack campaign forging
    /// announcements); delivered after link latency.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: P) {
        self.stats.injected += 1;
        self.schedule_send(src, dst, msg);
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let shard = &self.shards[*self.node_shard.get(id)? as usize];
        shard.nodes[self.node_local[id] as usize].as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let shard = &mut self.shards[*self.node_shard.get(id)? as usize];
        shard.nodes[self.node_local[id] as usize].as_any_mut().downcast_mut::<T>()
    }

    /// Queues `kind` at `at` on the shard that owns `target`, under the
    /// next sequence number. Serial contexts only (exchange, faults,
    /// barrier hook, injection): this is what fixes the total order.
    fn schedule(&mut self, at: SimTime, target: u32, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = self.node_shard[target as usize] as usize;
        self.shards[shard].queue.push(at, (seq, kind));
    }

    fn schedule_send(&mut self, src: NodeId, dst: NodeId, msg: P) {
        assert!(dst < self.node_shard.len(), "send to unknown node {dst}");
        let cfg = self.link_config(src, dst);
        self.stats.sent += 1;
        self.stats.bytes_sent += msg.wire_size() as u64;
        // Pause drops happen before the DRBG drop-check so a paused
        // clean link consumes no randomness.
        if self.paused[src] || self.paused[dst] {
            self.stats.dropped += 1;
            return;
        }
        if cfg.down || (cfg.drop_prob > 0.0 && self.rng.chance(cfg.drop_prob)) {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if cfg.jitter.as_micros() > 0 {
            SimDuration::from_micros(self.rng.below(cfg.jitter.as_micros() + 1))
        } else {
            SimDuration::ZERO
        };
        let at = self.now + cfg.latency + jitter;
        let (src, dst) = (src as u32, dst as u32);
        self.schedule(at, dst, EventKind::Deliver { src, dst, msg });
    }

    fn apply_action(&mut self, node: u32, action: Action<P>) {
        match action {
            Action::Send { to, msg } => self.schedule_send(node as NodeId, to, msg),
            Action::SetTimer { delay, timer } => {
                self.schedule(self.now + delay, node, EventKind::Timer { node, timer });
            }
        }
    }

    /// Serial exchange: applies every shard's buffered actions in
    /// `(cause-sequence, action-index)` order, consuming the link DRBG
    /// and assigning sequence numbers along the way. Each outbox is
    /// already in that order, so a lone non-empty one is drained as it
    /// stands; only several are merged and sorted.
    fn exchange(&mut self) {
        let mut filled = self.shards.iter().enumerate().filter(|(_, s)| !s.outbox.is_empty());
        let Some((first, _)) = filled.next() else { return };
        if filled.next().is_none() {
            let mut outbox = std::mem::take(&mut self.shards[first].outbox);
            self.apply_batch(&mut outbox);
            self.shards[first].outbox = outbox;
            return;
        }
        let mut merged = std::mem::take(&mut self.merged);
        for shard in &mut self.shards {
            merged.append(&mut shard.outbox);
        }
        merged.sort_unstable_by_key(|&(cause, idx, _, _)| (cause, idx));
        self.apply_batch(&mut merged);
        self.merged = merged;
    }

    /// Applies `batch` in order and leaves it empty, keeping at most
    /// twice the room this window needed: one huge window must not pin
    /// its buffer through a run of small ones (a run cut into event
    /// budgets smaller than its windows is exactly that).
    fn apply_batch(&mut self, batch: &mut Vec<OutboxEntry<P>>) {
        let used = batch.len();
        for (_, _, node, action) in batch.drain(..) {
            self.apply_action(node, action);
        }
        batch.shrink_to(2 * used);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Start-up is a synthetic window at the current time: causes
        // are node ids, so the exchange applies actions in (node,
        // action-index) order.
        let now = self.now;
        for shard in &mut self.shards {
            shard.run_starts(now);
        }
        self.exchange();
    }

    /// Earliest unapplied fault time, clamped to `now` (late-installed
    /// plans fire immediately, never in the past).
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(FaultInjector::next_time).map(|t| t.max(self.now))
    }

    /// Earliest pending event time over all calendars.
    fn queue_head(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Runs one `on_session` callback on the coordinator and applies
    /// its actions immediately, in issue order.
    fn dispatch_session(&mut self, node: NodeId, peer: NodeId, up: bool) {
        let shard = &mut self.shards[self.node_shard[node] as usize];
        let local = self.node_local[node] as usize;
        let mut ctx = Context::renew(self.now, node as u32, 0, Vec::new());
        shard.nodes[local].on_session(&mut ctx, peer, up);
        for (_, _, node, action) in ctx.into_actions() {
            self.apply_action(node, action);
        }
    }

    /// Applies one fault. Link and session faults dispatch
    /// [`Agent::on_session`] on both endpoints (`a` first).
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::LinkDown { a, b } => {
                self.stats.link_down += 1;
                self.set_link_down(a, b, true);
                self.set_link_down(b, a, true);
                self.dispatch_session(a, b, false);
                self.dispatch_session(b, a, false);
            }
            Fault::LinkUp { a, b } => {
                self.stats.link_up += 1;
                self.set_link_down(a, b, false);
                self.set_link_down(b, a, false);
                self.dispatch_session(a, b, true);
                self.dispatch_session(b, a, true);
            }
            Fault::LinkDegrade { a, b, drop_prob, jitter } => {
                self.stats.link_degrades += 1;
                for (src, dst) in [(a, b), (b, a)] {
                    let mut cfg = self.link_config(src, dst);
                    cfg.drop_prob = drop_prob;
                    cfg.jitter = jitter;
                    self.links.insert((src, dst), cfg);
                }
            }
            Fault::SessionReset { a, b } => {
                self.stats.session_resets += 1;
                self.dispatch_session(a, b, false);
                self.dispatch_session(b, a, false);
                self.dispatch_session(a, b, true);
                self.dispatch_session(b, a, true);
            }
            Fault::NodePause { node } => {
                self.stats.node_pauses += 1;
                self.paused[node] = true;
            }
            Fault::NodeResume { node } => {
                self.paused[node] = false;
            }
        }
    }

    /// The sequence number below which a window of more than `budget`
    /// events at `time` may dispatch so that exactly `budget` run: the
    /// `budget`-th smallest pending sequence number (cascades only ever
    /// append larger ones, so those below it are the events a
    /// one-at-a-time engine would run next).
    fn window_cutoff(&self, time: SimTime, budget: usize) -> u64 {
        // Each bucket is in sequence order, so the `budget`-th smallest
        // overall is among the first `budget + 1` entries of each.
        let mut seqs: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.queue.bucket_at(time).take(budget + 1).map(|&(seq, _)| seq))
            .collect();
        *seqs.select_nth_unstable(budget).1
    }

    /// Dispatches the window at `time` (at most `budget` events of it),
    /// one non-empty shard on this thread and a spawned worker for each
    /// other when the window is large enough to amortize thread
    /// start-up, then exchanges.
    fn run_window(&mut self, time: SimTime, budget: u64) {
        let trace = self.trace.is_some();
        let pending: usize = self.shards.iter().map(|s| s.queue.len_at(time)).sum();
        let cutoff = match usize::try_from(budget) {
            Ok(budget) if budget < pending => self.window_cutoff(time, budget),
            _ => u64::MAX,
        };
        let node_local = self.node_local.as_slice();
        let active = self.shards.iter().filter(|s| s.queue.peek_time() == Some(time)).count();
        if active <= 1 || pending < self.spawn_threshold {
            for shard in &mut self.shards {
                shard.run_bucket(time, cutoff, node_local, trace);
            }
        } else {
            // The first busy shard runs here, on the coordinator, once
            // the others are on their way: a window costs one thread
            // spawn fewer, and that thread's allocator arena with it.
            std::thread::scope(|scope| {
                let mut busy = self.shards.iter_mut().filter(|s| s.queue.peek_time() == Some(time));
                let inline = busy.next();
                for shard in busy {
                    scope.spawn(move || shard.run_bucket(time, cutoff, node_local, trace));
                }
                if let Some(shard) = inline {
                    shard.run_bucket(time, cutoff, node_local, trace);
                }
            });
        }
        self.exchange();

        // Fold per-shard counters (summation is order-independent, so
        // this cannot depend on shard layout) and the window's trace.
        let (mut events, mut delivered) = (0, 0);
        for shard in &mut self.shards {
            events += std::mem::take(&mut shard.events);
            delivered += std::mem::take(&mut shard.delivered);
            self.stats.timers_fired += std::mem::take(&mut shard.timers_fired);
        }
        self.stats.events += events;
        self.stats.delivered += delivered;
        if let Some(tl) = &mut self.timeline {
            use pvr_obs::timeline::{SIM_DELIVERED, SIM_EVENTS};
            tl.add(time.as_micros(), SIM_EVENTS, events);
            tl.add(time.as_micros(), SIM_DELIVERED, delivered);
        }
        if let Some(trace) = &mut self.trace {
            let mut window: Vec<(u64, Delivery<P>)> = Vec::new();
            for shard in &mut self.shards {
                window.append(&mut shard.trace);
            }
            window.sort_by_key(|&(seq, _)| seq);
            trace.extend(window.into_iter().map(|(_, d)| d));
        }
    }

    /// Runs until every calendar drains or a bound is hit. Returns the
    /// reason the run stopped. [`RunLimits::max_events`] is exact: the
    /// run stops after that many events, on the same event at every
    /// shard count, with the rest of the instant still queued.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        self.start_if_needed();
        loop {
            let budget = match limits.max_events {
                Some(max) if self.stats.events >= max => return StopReason::EventLimit,
                Some(max) => max - self.stats.events,
                None => u64::MAX,
            };
            let fhead = self.next_fault_time();
            let time = match (self.queue_head(), fhead) {
                (Some(q), Some(f)) => q.min(f),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => return StopReason::Quiescent,
            };
            if limits.deadline.is_some_and(|deadline| time > deadline) {
                return StopReason::Deadline;
            }
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            // A due fault fires before any queued event at the same
            // instant; the window itself, if any, runs on the next
            // iteration.
            if fhead.is_some_and(|f| f <= time) {
                while let Some(fault) = self.faults.as_mut().and_then(|f| f.pop_due(time)) {
                    self.apply_fault(fault);
                }
                continue;
            }
            self.run_window(time, budget);
            // The instant has drained when nothing is left at `time`:
            // zero-latency cascades and the tail of a budget-truncated
            // window both keep the head at `time` and come back through
            // the loop. Depth first, hook second, so hook timers never
            // count into the sample.
            if (self.timeline.is_some() || self.barrier.is_some())
                && self.queue_head() != Some(time)
            {
                if let Some(tl) = &mut self.timeline {
                    let depth: usize = self.shards.iter().map(|s| s.queue.len()).sum();
                    tl.set(time.as_micros(), pvr_obs::timeline::SIM_QUEUE_DEPTH, depth as u64);
                }
                if let Some(mut hook) = self.barrier.take() {
                    let timers = hook.on_barrier(time);
                    self.barrier = Some(hook);
                    for (node, delay, timer) in timers {
                        let node = node as u32;
                        self.schedule(time + delay, node, EventKind::Timer { node, timer });
                    }
                }
            }
        }
    }
}

impl<P: Payload + pvr_crypto::encoding::Wire> Simulator<P> {
    /// Serializes the engine's dynamic state — clock, link DRBG,
    /// sequence counter, calendars, stats, link overrides, pause flags,
    /// unapplied faults, timeline cells. Agents are **not** included:
    /// the caller owns their reconstruction and overlays this state via
    /// [`load_state`](Self::load_state) on a freshly built simulator.
    /// The bytes are *shard-shaped* (one calendar per shard) and
    /// restore only into a simulator with the same shard count and node
    /// placement.
    ///
    /// Refuses (typed [`crate::state::StateError`]) when a trace or
    /// barrier hook is active — neither survives a round-trip, and
    /// silently dropping them would corrupt the restored run's
    /// observable behaviour.
    pub fn save_state(&self) -> Result<Vec<u8>, crate::state::StateError> {
        use crate::state::{self, CommonState, StateError};
        use pvr_crypto::encoding::Wire;
        if self.trace.is_some() {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        let mut links: Vec<_> = self.links.iter().map(|(&k, &v)| (k, v)).collect();
        links.sort_unstable_by_key(|&(key, _)| key);
        let common = CommonState {
            node_count: self.node_shard.len(),
            now: self.now,
            started: self.started,
            stats: self.stats.clone(),
            default_link: self.default_link,
            links,
            paused: self.paused.clone(),
            faults: self.faults.as_ref().map(|f| f.remaining().to_vec()),
            timeline: self.timeline.clone(),
        };
        let mut out = Vec::new();
        (self.shards.len() as u64).encode(&mut out);
        common.encode(&mut out);
        self.next_seq.encode(&mut out);
        self.rng.encode(&mut out);
        for shard in &self.shards {
            (shard.queue.len() as u64).encode(&mut out);
            for (time, (seq, kind)) in shard.queue.iter() {
                time.encode(&mut out);
                seq.encode(&mut out);
                state::encode_event(kind, &mut out);
            }
        }
        Ok(out)
    }

    /// Restores state saved by [`save_state`](Self::save_state) into
    /// this simulator, which must hold the same node and shard layout
    /// (the caller rebuilds agents from its own configuration first).
    ///
    /// The input is decoded and validated in full before anything is
    /// applied: on any error — truncation, corrupt discriminants,
    /// out-of-range node ids, a mismatching stats field list — the
    /// simulator is left exactly as it was.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::state::StateError> {
        use crate::state::{self, CommonState, StateError};
        use pvr_crypto::encoding::{Reader, Wire, WireError};
        if self.trace.is_some() {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        let mut r = Reader::new(bytes);
        let shard_count = state::checked_count(&mut r, 1)? as usize;
        if shard_count != self.shards.len() {
            return Err(StateError::ShardCountMismatch {
                expected: shard_count,
                found: self.shards.len(),
            });
        }
        let common = CommonState::decode(&mut r)?;
        if common.node_count != self.node_shard.len() {
            return Err(StateError::NodeCountMismatch {
                expected: common.node_count,
                found: self.node_shard.len(),
            });
        }
        let next_seq = u64::decode(&mut r)?;
        let rng = HmacDrbg::decode(&mut r)?;
        let mut queues = Vec::with_capacity(shard_count);
        for shard_ix in 0..shard_count {
            let event_count = state::checked_count(&mut r, 17)?;
            let mut queue = EventQueue::new();
            let mut last = (common.now, 0);
            for _ in 0..event_count {
                let time = SimTime::decode(&mut r)?;
                let seq = u64::decode(&mut r)?;
                if seq >= next_seq {
                    return Err(StateError::Corrupt("event sequence beyond counter"));
                }
                // Windows drain each bucket in sequence order and stop
                // at a cutoff, so a calendar must be sorted by (time,
                // sequence) — not merely by time.
                if (time, seq) < last {
                    return Err(StateError::Corrupt("event calendar out of order"));
                }
                last = (time, seq + 1);
                let kind = state::decode_event::<P>(&mut r, common.node_count)?;
                // An event must live on the shard that owns its target
                // node, or the window would dispatch it on the wrong
                // shard's agents.
                let target = match &kind {
                    EventKind::Deliver { dst, .. } => *dst,
                    EventKind::Timer { node, .. } => *node,
                };
                if self.node_shard[target as usize] as usize != shard_ix {
                    return Err(StateError::Corrupt("event on wrong shard"));
                }
                queue.push(time, (seq, kind));
            }
            queues.push(queue);
        }
        if r.remaining() > 0 {
            return Err(StateError::Wire(WireError::TrailingBytes(r.remaining())));
        }
        // Fully validated — apply.
        self.now = common.now;
        self.started = common.started;
        self.stats = common.stats;
        self.default_link = common.default_link;
        self.links = common.links.into_iter().collect();
        self.paused = common.paused;
        self.faults = common.faults.map(FaultInjector::from_schedule);
        self.timeline = common.timeline;
        self.next_seq = next_seq;
        self.rng = rng;
        for (shard, queue) in self.shards.iter_mut().zip(queues) {
            shard.queue = queue;
        }
        Ok(())
    }
}

/// Compatibility name for `benchmark/`, which is frozen outside
/// benchmark PRs and still spells the k-shard constructor this way.
/// Deletable by the next benchmark PR; nothing else may use it.
#[doc(hidden)]
pub struct ShardedSimulator<P: Payload>(Simulator<P>);

impl<P: Payload> ShardedSimulator<P> {
    /// [`Simulator::with_shards`] under its old name.
    pub fn new(seed: u64, shards: usize) -> ShardedSimulator<P> {
        ShardedSimulator(Simulator::with_shards(seed, shards))
    }
}

impl<P: Payload> std::ops::Deref for ShardedSimulator<P> {
    type Target = Simulator<P>;
    fn deref(&self) -> &Simulator<P> {
        &self.0
    }
}

impl<P: Payload> std::ops::DerefMut for ShardedSimulator<P> {
    fn deref_mut(&mut self) -> &mut Simulator<P> {
        &mut self.0
    }
}

/// Bounds for [`Simulator::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunLimits {
    /// Stop before processing any event later than this time.
    pub deadline: Option<SimTime>,
    /// Stop after this many events.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// No limits: run to quiescence.
    pub fn none() -> RunLimits {
        RunLimits::default()
    }

    /// Run until simulated `deadline`.
    pub fn until(deadline: SimTime) -> RunLimits {
        RunLimits { deadline: Some(deadline), max_events: None }
    }
}

/// Why a [`Simulator::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No events left: the protocol converged.
    Quiescent,
    /// The next event lies past the deadline.
    Deadline,
    /// The event budget was exhausted.
    EventLimit,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: counts down a token passed between two nodes.
    #[derive(Clone, Debug, PartialEq)]
    struct Token(u32);

    impl Payload for Token {
        fn wire_size(&self) -> usize {
            4
        }
    }

    struct PingPong {
        peer: NodeId,
        received: Vec<u32>,
        kick_off: bool,
    }

    impl Agent<Token> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if self.kick_off {
                ctx.send(self.peer, Token(5));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
            self.received.push(msg.0);
            if msg.0 > 0 {
                ctx.send(self.peer, Token(msg.0 - 1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ping_pong_sim(seed: u64) -> Simulator<Token> {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: true }));
        let b = sim.add_node(Box::new(PingPong { peer: 0, received: vec![], kick_off: false }));
        assert_eq!((a, b), (0, 1));
        sim
    }

    #[test]
    fn ping_pong_converges() {
        let mut sim = ping_pong_sim(1);
        assert_eq!(sim.run(RunLimits::none()), StopReason::Quiescent);
        let a: &PingPong = sim.node(0).unwrap();
        let b: &PingPong = sim.node(1).unwrap();
        assert_eq!(b.received, vec![5, 3, 1]);
        assert_eq!(a.received, vec![4, 2, 0]);
        assert_eq!(sim.stats().delivered, 6);
        assert_eq!(sim.stats().bytes_sent, 24);
    }

    #[test]
    fn time_advances_with_latency() {
        let mut sim = ping_pong_sim(1);
        sim.set_default_link(LinkConfig::with_latency(SimDuration::from_millis(10)));
        sim.run(RunLimits::none());
        // 6 hops × 10 ms.
        assert_eq!(sim.now().as_micros(), 60_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = ping_pong_sim(seed);
            sim.set_default_link(
                LinkConfig::with_latency(SimDuration::from_millis(1))
                    .jittered(SimDuration::from_micros(500)),
            );
            sim.enable_trace();
            sim.run(RunLimits::none());
            (
                sim.now(),
                sim.stats().clone(),
                sim.trace().unwrap().iter().map(|d| (d.time, d.src, d.dst)).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2, "different seeds should jitter differently");
    }

    #[test]
    fn lossy_link_drops() {
        let mut sim = ping_pong_sim(3);
        sim.set_default_link(LinkConfig::default().lossy(1.0));
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped, 1); // the kick-off message
    }

    #[test]
    fn partition_blocks_messages() {
        let mut sim = ping_pong_sim(4);
        sim.set_link_down(0, 1, true);
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 0);
        // Bringing the link back up lets an injected message through.
        sim.set_link_down(0, 1, false);
        sim.inject(0, 1, Token(0));
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().injected, 1);
    }

    #[test]
    fn deadline_stops_run() {
        let mut sim = ping_pong_sim(5);
        sim.set_default_link(LinkConfig::with_latency(SimDuration::from_millis(10)));
        let r = sim.run(RunLimits::until(SimTime(25_000)));
        assert_eq!(r, StopReason::Deadline);
        assert!(sim.now().as_micros() <= 25_000);
        // Resume to quiescence.
        assert_eq!(sim.run(RunLimits::none()), StopReason::Quiescent);
    }

    #[test]
    fn event_limit_stops_run() {
        let mut sim = ping_pong_sim(6);
        let r = sim.run(RunLimits { deadline: None, max_events: Some(2) });
        assert_eq!(r, StopReason::EventLimit);
        assert_eq!(sim.stats().events, 2);
    }

    struct Burst {
        peer: NodeId,
        got: Vec<u32>,
    }

    impl Agent<Token> for Burst {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            for i in 0..10 {
                ctx.send(self.peer, Token(i));
            }
        }
        fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, msg: Token) {
            self.got.push(msg.0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn fifo_ordering_on_equal_latency_links() {
        // Two messages sent back-to-back over the same link must arrive
        // in send order (ties broken by sequence number).
        let mut sim: Simulator<Token> = Simulator::new(11);
        sim.add_node(Box::new(Burst { peer: 1, got: vec![] }));
        sim.add_node(Box::new(Burst { peer: 0, got: vec![] }));
        sim.run(RunLimits::none());
        let b: &Burst = sim.node(1).unwrap();
        assert_eq!(b.got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn event_limit_is_exact_inside_a_window() {
        // All twenty deliveries share one timestamp — one window. The
        // budget cuts it at the same event whatever the shard count,
        // and the tail stays queued for the next call.
        for shards in 1..=3 {
            let mut sim: Simulator<Token> = Simulator::with_shards(11, shards);
            sim.set_spawn_threshold(1);
            sim.add_node(Box::new(Burst { peer: 1, got: vec![] }));
            sim.add_node(Box::new(Burst { peer: 0, got: vec![] }));
            sim.enable_trace();
            let r = sim.run(RunLimits { deadline: None, max_events: Some(7) });
            assert_eq!(r, StopReason::EventLimit);
            assert_eq!(sim.stats().events, 7, "{shards} shards");
            let dsts: Vec<NodeId> = sim.trace().unwrap().iter().map(|d| d.dst).collect();
            assert_eq!(dsts, vec![1; 7], "node 0's burst was scheduled first");
            assert_eq!(sim.run(RunLimits::none()), StopReason::Quiescent);
            assert_eq!(sim.stats().events, 20);
            assert_eq!(sim.node::<Burst>(0).unwrap().got, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn trace_records_deliveries() {
        let mut sim = ping_pong_sim(10);
        sim.enable_trace();
        sim.run(RunLimits::none());
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].msg, Token(5));
        assert_eq!(trace[0].src, 0);
        assert_eq!(trace[0].dst, 1);
    }

    #[test]
    fn explicit_shard_placement() {
        let mut sim: Simulator<Token> = Simulator::with_shards(1, 3);
        let a = sim
            .add_node_to_shard(Box::new(PingPong { peer: 1, received: vec![], kick_off: true }), 2);
        let b = sim.add_node_to_shard(
            Box::new(PingPong { peer: 0, received: vec![], kick_off: false }),
            0,
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(sim.shard_of(a), 2);
        assert_eq!(sim.shard_of(b), 0);
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 6);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn send_to_unknown_node_panics() {
        let mut sim = ping_pong_sim(12);
        sim.inject(0, 99, Token(0));
    }
}
