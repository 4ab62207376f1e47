//! The seven workloads: what each builds (`setup`, timed as `setup_s`)
//! and what one operation is (`op`, timed as the operation latency).
//!
//! Every input is made from `--seed`; the program under test only sees
//! generated topologies, keys and schedules. All loads are closed-loop
//! with one client: the next operation starts when the previous one
//! has finished and been checked.

use crate::trace::Tracer;
use pvr::bgp::sbgp::SignedRoute;
use pvr::bgp::workload::continuous_churn;
use pvr::bgp::{
    internet_like, Asn, BgpNetwork, DampeningPolicy, Edge, InstantiateOptions, InternetParams,
    Prefix, Route, RouterStats, ShardedBgpNetwork, SmcBatchStats, Topology,
};
use pvr::core::{
    cross_check_roots, run_min_round, verify_as_provider, verify_as_receiver, Figure1Bed,
    Misbehavior, PvrParams, RoundContext, Transcript,
};
use pvr::crypto::drbg::HmacDrbg;
use pvr::crypto::keys::{Identity, KeyStore};
use pvr::crypto::sha256::Sha256;
use pvr::crypto::Wire;
use pvr::mht::SignedRoot;
use pvr::netsim::{Fault, FaultPlan, RunLimits, SimDuration, SimStats, SimTime, StopReason};
use pvr::rfg::figure1_graph;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PlainConverge,
    SignedConverge,
    SignedConvergeSharded,
    PvrRounds,
    PrivateConverge,
    DurableConverge,
    ChurnFaults,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// ASes in the generated topology (0 for `pvr_rounds`).
    pub ases: usize,
    /// What one unit of `work_per_s` is.
    pub unit: &'static str,
}

/// Topology sizes are the ones ISSUE 12 timed; the run length is cut by
/// doing fewer reps, never by shrinking a topology.
pub const SPECS: [Spec; 7] = [
    Spec { name: "plain_converge", kind: Kind::PlainConverge, ases: 3000, unit: "events" },
    Spec { name: "signed_converge", kind: Kind::SignedConverge, ases: 300, unit: "events" },
    Spec {
        name: "signed_converge_sharded",
        kind: Kind::SignedConvergeSharded,
        ases: 300,
        unit: "events",
    },
    Spec { name: "pvr_rounds", kind: Kind::PvrRounds, ases: 0, unit: "rounds" },
    Spec { name: "private_converge", kind: Kind::PrivateConverge, ases: 1000, unit: "events" },
    Spec { name: "durable_converge", kind: Kind::DurableConverge, ases: 500, unit: "events" },
    Spec { name: "churn_faults", kind: Kind::ChurnFaults, ases: 1000, unit: "events" },
];

/// Shard workers of `signed_converge_sharded`: the only threads beside
/// the load generator, and no more than the reference box has cores.
pub const SHARDS: usize = 2;

/// The e14 topology recipe, copied (not imported from `pvr-bench`) so
/// that reorganising the experiment crate cannot move the baseline:
/// 8 tier-1, `ases/40` tier-2 clamped to 12..=900, the rest stubs, of
/// which the first 256 originate a /24.
pub fn recipe(ases: usize) -> InternetParams {
    let tier1 = 8;
    let tier2 = (ases / 40).clamp(12, 900);
    InternetParams {
        tier1,
        tier2,
        stubs: ases - tier1 - tier2,
        t2_peering_prob: 0.2,
        originating_stubs: 256,
        ..InternetParams::default()
    }
}

/// Either engine behind the calls the benchmark makes.
pub enum Net {
    Serial(BgpNetwork),
    Sharded(ShardedBgpNetwork),
}

macro_rules! either {
    ($self:expr, $n:ident => $e:expr) => {
        match $self {
            Net::Serial($n) => $e,
            Net::Sharded($n) => $e,
        }
    };
}

impl Net {
    pub fn converge(&mut self, limits: RunLimits) -> StopReason {
        either!(self, n => n.converge(limits))
    }
    pub fn sim_stats(&self) -> SimStats {
        either!(self, n => n.sim.stats().clone())
    }
    pub fn events(&self) -> u64 {
        either!(self, n => n.sim.stats().events)
    }
    pub fn now_us(&self) -> u64 {
        either!(self, n => n.sim.now().as_micros())
    }
    pub fn router_totals(&self) -> RouterStats {
        either!(self, n => n.router_totals())
    }
    /// SHA-256 over every router's Loc-RIB in (ASN, prefix) order. The
    /// library's own `rib_fingerprint` builds a persistent map of the
    /// whole RIB, which at 3000 ASes costs several converges.
    pub fn rib_sha256(&self) -> String {
        let mut hasher = Sha256::new();
        let mut buf = Vec::new();
        either!(self, n => for asn in n.ases() {
            let router = n.router(asn);
            buf.clear();
            asn.encode(&mut buf);
            for prefix in router.selected_prefixes() {
                prefix.encode(&mut buf);
                router.best_route(prefix).expect("selected prefix has a best route").encode(&mut buf);
            }
            hasher.update(&buf);
        });
        hasher.finalize().to_hex()
    }
    /// Adj-RIB-In plus Loc-RIB entries over all routers.
    pub fn rib_entries(&self) -> u64 {
        either!(self, n => n
            .ases()
            .map(|a| {
                let (adj_in, loc) = n.router(a).rib_entry_counts();
                (adj_in + loc) as u64
            })
            .sum())
    }
    pub fn loc_rib_entries(&self) -> u64 {
        either!(self, n => n.ases().map(|a| n.router(a).rib_entry_counts().1 as u64).sum())
    }
    pub fn smc_stats(&self) -> Option<SmcBatchStats> {
        either!(self, n => n.private_verifier().map(|v| v.stats()))
    }
    pub fn snapshots(&self) -> usize {
        either!(self, n => n.snapshot_times().len())
    }
}

/// What one operation did, and whether its outputs were right.
pub struct Rep {
    /// Wall seconds of the timed calls only; checks are outside.
    pub wall_s: f64,
    /// Simulator events processed, or 1 for a PVR round.
    pub units: u64,
    pub ok: bool,
    /// Must be identical for every rep of one run (same seed, same
    /// inputs): event count, simulated time and RIB SHA-256.
    pub signature: String,
}

pub trait Workload {
    /// Frees what the last set-up and operation left behind, so that a
    /// set-up is not charged for it and never holds two networks.
    fn teardown(&mut self);
    /// Builds everything one or more operations need.
    fn setup(&mut self, tr: &mut Tracer);
    /// Runs one operation, or returns `None` when `setup` must run
    /// again first (a converged network cannot converge twice).
    fn op(&mut self, tr: &mut Tracer) -> Option<Rep>;
    /// Counters read off the program's public statistics after the
    /// most recent operation.
    fn counters(&self) -> Vec<(&'static str, f64)>;
}

// ---------------------------------------------------------------------
// The six convergence workloads.

const CHURN_EVENTS: usize = 512;
const CHURN_PAIRS: usize = 64;
const CHURN_START_MS: u64 = 1_000;
const CHURN_SPACING_MS: u64 = 30;
/// `churn_faults` is timed from here (initial convergence is over by
/// then; it belongs to `setup_s`) to quiescence.
const CHURN_TIMED_FROM_MS: u64 = 900;
const CHECKPOINT_EVERY_MS: u64 = 10;

pub struct Converge {
    kind: Kind,
    seed: u64,
    ases: usize,
    scratch: PathBuf,
    /// The topology of the most recent set-up.
    topology: Option<Topology>,
    ready: Option<Net>,
    /// The network the last operation left behind, for `counters`.
    done: Option<Net>,
    /// Outputs of the unprotected drive of the same topology: the
    /// non-private run for `private_converge`, the uncheckpointed run
    /// for `durable_converge`. Made once, untimed.
    reference: Option<Reference>,
    last_parts: Vec<(&'static str, f64)>,
}

pub struct Reference {
    pub wall_s: f64,
    pub stats: SimStats,
    pub sim_us: u64,
    pub rib_sha256: String,
}

impl Converge {
    pub fn new(kind: Kind, seed: u64, scratch: PathBuf) -> Converge {
        let ases = SPECS.iter().find(|s| s.kind == kind).expect("kind has a spec").ases;
        Converge {
            kind,
            seed,
            ases,
            scratch,
            topology: None,
            ready: None,
            done: None,
            reference: None,
            last_parts: Vec::new(),
        }
    }

    pub fn options(&self) -> InstantiateOptions {
        let base = InstantiateOptions { seed: self.seed, ..Default::default() };
        match self.kind {
            Kind::SignedConverge | Kind::SignedConvergeSharded => {
                InstantiateOptions { signed: true, key_bits: 512, ..base }
            }
            Kind::PrivateConverge => InstantiateOptions { private_verification: true, ..base },
            Kind::ChurnFaults => InstantiateOptions {
                mrai: Some(SimDuration::from_millis(5)),
                mrai_jitter: Some(SimDuration::from_millis(1)),
                dampening: Some(DampeningPolicy::default()),
                ..base
            },
            _ => base,
        }
    }

    fn generate_topology(&self, tr: &mut Tracer) -> Topology {
        let mut topology =
            tr.span("bgp", "internet_like", |_| internet_like(recipe(self.ases), self.seed));
        if self.kind == Kind::ChurnFaults {
            let pairs: Vec<(Asn, Prefix)> = topology
                .ases()
                .flat_map(|a| topology.originated_by(a).iter().map(move |&p| (a, p)))
                .take(CHURN_PAIRS)
                .collect();
            continuous_churn(
                &mut topology,
                &pairs,
                CHURN_EVENTS,
                SimDuration::from_millis(CHURN_START_MS),
                SimDuration::from_millis(CHURN_SPACING_MS),
                self.seed,
            );
        }
        topology
    }

    /// The plain, unprotected drive of this workload's topology: the
    /// base of the differentials and of the equality checks.
    pub fn reference(&mut self) -> &Reference {
        if self.reference.is_none() {
            let topology = internet_like(recipe(self.ases), self.seed);
            let mut net =
                topology.instantiate(InstantiateOptions { seed: self.seed, ..Default::default() });
            let t = Instant::now();
            let stop = net.converge(RunLimits::none());
            let wall_s = t.elapsed().as_secs_f64();
            assert_eq!(stop, StopReason::Quiescent, "reference run must reach quiescence");
            self.reference = Some(Reference {
                wall_s,
                stats: net.sim.stats().clone(),
                sim_us: net.sim.now().as_micros(),
                rib_sha256: Net::Serial(net).rib_sha256(),
            });
        }
        self.reference.as_ref().expect("just set")
    }

    pub fn checkpoint_dir(&self) -> PathBuf {
        self.scratch.join("ckpt")
    }

    /// The topology of the most recent set-up.
    pub fn topology(&self) -> &Topology {
        self.topology.as_ref().expect("set-up has run")
    }

    /// The network the last operation left behind.
    pub fn done(&self) -> &Net {
        self.done.as_ref().expect("an operation has run")
    }

    pub fn done_mut(&mut self) -> &mut Net {
        self.done.as_mut().expect("an operation has run")
    }
}

/// Two flapping links and one twice-reset session, picked by seed (the
/// e16 fault plan).
fn fault_plan(topology: &Topology, net: &BgpNetwork, seed: u64) -> FaultPlan {
    let edges = topology.edges();
    let mut rng = HmacDrbg::from_u64_labeled(seed, "benchmark-faults");
    let mut picks: Vec<usize> = Vec::new();
    while picks.len() < 3.min(edges.len()) {
        let i = rng.index(edges.len());
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut plan = FaultPlan::new();
    for (k, &i) in picks.iter().enumerate() {
        let (a, b) = match edges[i] {
            Edge::ProviderCustomer { provider, customer } => (provider, customer),
            Edge::Peering(a, b) => (a, b),
            Edge::PartialTransit { provider, customer, .. } => (provider, customer),
        };
        let (na, nb) = (net.node_of(a), net.node_of(b));
        if k < 2 {
            plan.flap_link(
                na,
                nb,
                at(1_200 + 150 * k as u64),
                SimDuration::from_millis(40),
                SimDuration::from_millis(100),
                3,
            );
        } else {
            plan.push(at(1_500), Fault::SessionReset { a: na, b: nb });
            plan.push(at(1_900), Fault::SessionReset { a: na, b: nb });
        }
    }
    plan
}

/// Runs to quiescence in slices of about 50 ms of events, sampling the
/// host's speed between slices with the clock stopped (the sharded
/// engine stops at window boundaries only, so its slices are whole
/// windows). Returns why it stopped and the seconds the slices took.
fn converge_in_slices(net: &mut Net, tr: &mut Tracer) -> (StopReason, f64) {
    let mut busy_s = 0.0;
    let mut slice = 1_000;
    loop {
        let limit = net.events() + slice;
        let t = Instant::now();
        let stop = net.converge(RunLimits { deadline: None, max_events: Some(limit) });
        let took = t.elapsed().as_secs_f64();
        busy_s += took;
        if stop != StopReason::EventLimit {
            return (stop, busy_s);
        }
        slice = ((slice as f64 * 0.05 / took) as u64).clamp(100, 1_000_000);
        tr.calibrate();
    }
}

impl Converge {
    /// One `durable_converge` operation: converge writing a checkpoint
    /// every 10 sim-ms, then crash — restore the middle checkpoint and
    /// replay to quiescence. Returns the seconds both took, whether the
    /// recovered network equals the uncheckpointed one, and the events
    /// replayed.
    fn checkpoint_and_recover(
        &mut self,
        net: &mut BgpNetwork,
        tr: &mut Tracer,
    ) -> (f64, bool, u64) {
        let dir = self.checkpoint_dir();
        let t = Instant::now();
        let (stop, last) = tr
            .span("store", "converge_checkpointed", |_| {
                net.converge_checkpointed(
                    RunLimits::none(),
                    SimDuration::from_millis(CHECKPOINT_EVERY_MS),
                    &dir,
                )
            })
            .expect("checkpoint directory is writable");
        let converge_s = t.elapsed().as_secs_f64();
        tr.calibrate();
        let mut ok = stop == StopReason::Quiescent;

        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("checkpoint directory exists")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        let size_mb = |p: &PathBuf| std::fs::metadata(p).map_or(0.0, |m| m.len() as f64 / 1e6);

        let t = Instant::now();
        let mut recovered = tr
            .span("store", "restore", |_| BgpNetwork::restore(&files[files.len() / 2]))
            .expect("a checkpoint just written restores");
        let restore_s = t.elapsed().as_secs_f64();
        tr.calibrate();
        let events_at_kill = recovered.sim.stats().events;
        let t = Instant::now();
        let stop = tr.span("bgp", "replay", |_| recovered.converge(RunLimits::none()));
        let recover_s = restore_s + t.elapsed().as_secs_f64();
        ok &= stop == StopReason::Quiescent;
        let replayed = recovered.sim.stats().events - events_at_kill;

        self.last_parts = vec![
            ("store.converge_ckpt_s", converge_s),
            ("store.checkpoints", files.len() as f64),
            ("store.checkpoint_mb", size_mb(&last)),
            ("store.written_mb", files.iter().map(size_mb).sum()),
            ("store.restore_s", restore_s),
            ("store.recover_s", recover_s),
            ("store.replay_events", replayed as f64),
        ];
        let _ = std::fs::remove_dir_all(&dir);

        let recovered_stats = recovered.sim.stats().clone();
        let recovered_rib = Net::Serial(recovered).rib_sha256();
        let reference = self.reference();
        ok &= recovered_rib == reference.rib_sha256 && recovered_stats == reference.stats;
        (converge_s + recover_s, ok, replayed)
    }
}

impl Workload for Converge {
    fn teardown(&mut self) {
        self.ready = None;
        self.done = None;
    }

    fn setup(&mut self, tr: &mut Tracer) {
        let topology = self.generate_topology(tr);
        // Set-up is a few long library calls; sample the host between them.
        tr.calibrate();
        let options = self.options();
        let net = match self.kind {
            Kind::SignedConvergeSharded => {
                let mut net = tr.span("bgp", "instantiate_sharded", |_| {
                    topology.instantiate_sharded(options, SHARDS)
                });
                net.install_origin_table(Arc::new(topology.origin_table()));
                Net::Sharded(net)
            }
            _ => {
                let mut net = tr.span("bgp", "instantiate", |_| topology.instantiate(options));
                if options.signed {
                    net.install_origin_table(Arc::new(topology.origin_table()));
                }
                if self.kind == Kind::ChurnFaults {
                    tr.calibrate();
                    net.install_fault_plan(fault_plan(&topology, &net, self.seed));
                    let until = SimTime::ZERO + SimDuration::from_millis(CHURN_TIMED_FROM_MS);
                    let stop = tr
                        .span("bgp", "initial_converge", |_| net.converge(RunLimits::until(until)));
                    assert_eq!(stop, StopReason::Deadline, "churn starts after the deadline");
                }
                Net::Serial(net)
            }
        };
        if self.kind == Kind::DurableConverge {
            // Left over only if an earlier run was killed.
            let _ = std::fs::remove_dir_all(self.checkpoint_dir());
        }
        self.topology = Some(topology);
        self.ready = Some(net);
    }

    fn op(&mut self, tr: &mut Tracer) -> Option<Rep> {
        let mut net = self.ready.take()?;
        let events_before = net.events();
        self.last_parts.clear();
        let (wall_s, mut ok, replayed) = match &mut net {
            Net::Serial(serial) if self.kind == Kind::DurableConverge => {
                self.checkpoint_and_recover(serial, tr)
            }
            _ => {
                let (stop, wall_s) =
                    tr.span("bgp", "converge", |tr| converge_in_slices(&mut net, tr));
                (wall_s, stop == StopReason::Quiescent, 0)
            }
        };

        let stats = net.sim_stats();
        let sim_us = net.now_us();
        let rib = net.rib_sha256();
        if self.kind == Kind::PrivateConverge {
            let smc = net.smc_stats().expect("private verifier is wired");
            ok &= smc.verdict_fail == 0 && smc.verdicts_delivered == smc.requests;
            ok &= rib == self.reference().rib_sha256;
        }
        self.done = Some(net);
        Some(Rep {
            wall_s,
            units: stats.events - events_before + replayed,
            ok,
            signature: format!("events={} sim_us={sim_us} rib={rib}", stats.events),
        })
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let Some(net) = &self.done else { return Vec::new() };
        let sim = net.sim_stats();
        let r = net.router_totals();
        let decisions = (r.best_changes + r.reselect_short_circuits).max(1);
        let mut out = vec![
            ("netsim.events", sim.events as f64),
            ("netsim.delivered", sim.delivered as f64),
            ("netsim.timers_fired", sim.timers_fired as f64),
            (
                "netsim.faults_applied",
                (sim.link_down + sim.link_up + sim.link_degrades + sim.session_resets) as f64,
            ),
            ("bgp.updates_rx", r.updates_rx as f64),
            ("bgp.updates_tx", r.updates_tx as f64),
            ("bgp.best_changes", r.best_changes as f64),
            ("bgp.short_circuit_ratio", r.reselect_short_circuits as f64 / decisions as f64),
            ("bgp.rib_entries", net.rib_entries() as f64),
            ("bgp.bytes_on_wire", sim.bytes_sent as f64),
            ("bgp.withdraws_sent", r.withdraws_sent as f64),
            ("bgp.dampening_suppressed", r.dampening_suppressed as f64),
            ("bgp.verify_calls", r.verify_calls as f64),
            (
                "bgp.verify_cache_hit_ratio",
                r.verify_cache_hits as f64 / r.verify_calls.max(1) as f64,
            ),
            ("crypto.verifies", (r.verify_calls - r.verify_cache_hits) as f64),
            ("netsim.sim_converge_ms", net.now_us() as f64 / 1e3),
            ("store.snapshots", net.snapshots() as f64),
        ];
        if let Some(s) = net.smc_stats() {
            out.extend([
                ("smc.requests", s.requests as f64),
                ("smc.batches", s.batches as f64),
                ("smc.occupancy_pct", 100.0 * s.lanes_occupied as f64 / s.lane_slots.max(1) as f64),
                ("smc.and_gates", s.and_gates as f64),
                ("smc.rounds_charged", s.rounds_charged as f64),
                ("smc.modeled_s", s.modeled_micros as f64 / 1e6),
            ]);
        }
        out.extend(self.last_parts.iter().copied());
        out
    }
}

// ---------------------------------------------------------------------
// pvr_rounds: the paper's protocol on the Figure 1 cast.

/// Provider counts; one operation runs a round at each.
pub const PROVIDER_COUNTS: [usize; 3] = [2, 5, 16];
/// The paper prices the protocol at RSA-1024 (§3.8).
pub const PVR_KEY_BITS: usize = 1024;
/// In every this-many-th operation A misbehaves in all three rounds
/// (next catalog entry each time).
const MISBEHAVE_EVERY: u64 = 10;

/// `Figure1Bed::build` with the key size as a parameter (the library
/// fixes it at 512 for test speed) and one identity pool shared by the
/// beds, so the largest bed's key generation is paid once. Provider 1
/// holds the unique shortest route, which makes every catalog
/// misbehavior aimed at it a real promise violation.
pub fn build_beds(seed: u64, key_bits: usize, tr: &mut Tracer) -> Vec<Figure1Bed> {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "benchmark-figure1-beds");
    let a = Asn(100);
    let b = Asn(200);
    let prefix = Prefix::parse("10.0.0.0/8").expect("literal prefix");
    let params = PvrParams::default();
    let mut pool: BTreeMap<Asn, Identity> = BTreeMap::new();
    let mut identity = |asn: Asn| -> Identity {
        pool.entry(asn)
            .or_insert_with(|| Identity::generate(asn.principal(), key_bits, &mut rng))
            .clone()
    };

    let mut beds = Vec::new();
    for k in PROVIDER_COUNTS {
        let ns: Vec<Asn> = (0..k).map(|i| Asn(1 + i as u32)).collect();
        let mut identities = BTreeMap::new();
        let mut keys = KeyStore::new();
        let mut inputs: BTreeMap<Asn, Vec<SignedRoute>> = BTreeMap::new();
        for &asn in ns.iter().chain([&a, &b]) {
            identities.insert(asn, identity(asn));
        }
        for (i, &n) in ns.iter().enumerate() {
            let len = if i == 0 { 2 } else { 3 + (i - 1) % 3 };
            // Chain ASes behind N_i, originator first, then N_i itself.
            let hops: Vec<Asn> = (0..len - 1)
                .rev()
                .map(|j| Asn(1000 + 100 * i as u32 + j as u32))
                .chain([n])
                .collect();
            let mut sr: Option<SignedRoute> = None;
            for (j, &hop) in hops.iter().enumerate() {
                let id = identity(hop);
                let next = hops.get(j + 1).copied().unwrap_or(a);
                sr = Some(match sr {
                    None => {
                        let mut r = Route::originate(prefix);
                        r.path = r.path.prepend(hop);
                        SignedRoute::originate(&id, r, next)
                    }
                    Some(prev) => {
                        SignedRoute::extend(&prev, &id, prev.route.clone().propagated_by(hop), next)
                    }
                });
                identities.insert(hop, id);
            }
            inputs.insert(n, vec![sr.expect("at least one hop")]);
        }
        for id in identities.values() {
            keys.register_identity(id);
        }
        let (graph, input_vars, output_var, _) = figure1_graph(&ns, b);
        tr.calibrate();
        beds.push(Figure1Bed {
            a,
            b,
            ns,
            prefix,
            keys,
            identities,
            inputs,
            graph,
            input_vars,
            output_var,
            round: RoundContext { prefix, epoch: 1 },
            params,
            seed,
        });
    }
    beds
}

pub struct PvrRounds {
    seed: u64,
    pub beds: Vec<Figure1Bed>,
    cycle: u64,
    injected: u64,
    detected: u64,
    bytes: u64,
}

impl PvrRounds {
    pub fn new(seed: u64) -> PvrRounds {
        PvrRounds { seed, beds: Vec::new(), cycle: 0, injected: 0, detected: 0, bytes: 0 }
    }
}

/// The honest path of `run_min_round`, call for call, with a span
/// around each call into `core`. What is not inside a child span
/// (cloning roots, serialising transcripts) is the round's self time.
pub fn traced_honest_round(bed: &Figure1Bed, tr: &mut Tracer) -> (bool, u64) {
    tr.span("core", "round", |tr| {
        let c = tr.span("core", "Committer::new", |_| bed.honest_committer());
        let roots: BTreeMap<Asn, SignedRoot> =
            bed.ns.iter().copied().chain([bed.b]).map(|n| (n, c.signed_root().clone())).collect();
        let (pd, rd) = tr.span("core", "disclosure_for_*", |_| {
            let pd: BTreeMap<Asn, _> =
                bed.ns.iter().map(|&n| (n, c.disclosure_for_provider(n))).collect();
            (pd, c.disclosure_for_receiver(bed.b))
        });

        let mut transcripts: BTreeMap<Asn, Transcript> = BTreeMap::new();
        let mut push = |n: Asn, label: &str, bytes: Vec<u8>| {
            transcripts.entry(n).or_default().received.push((label.to_string(), bytes));
        };
        for (&n, root) in &roots {
            push(n, "root", root.to_wire());
        }
        for (&n, d) in &pd {
            push(n, "disclosure", d.to_wire());
        }
        push(bed.b, "disclosure", rd.to_wire());
        let gossip: Vec<SignedRoot> = roots.values().cloned().collect();
        for &n in roots.keys() {
            for root in &gossip {
                push(n, "gossip", root.to_wire());
            }
        }
        let equivocation =
            tr.span("core", "cross_check_roots", |_| cross_check_roots(&gossip, &bed.keys));

        let mut accepted = equivocation.is_none();
        tr.span("core", "verify_as_provider", |_| {
            for &n in &bed.ns {
                let o = verify_as_provider(
                    bed.a,
                    &bed.round,
                    &bed.params,
                    &bed.inputs[&n],
                    &pd[&n],
                    &bed.keys,
                );
                accepted &= o.is_accept();
            }
        });
        let o = tr.span("core", "verify_as_receiver", |_| {
            verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &rd, &bed.keys)
        });
        accepted &= o.is_accept();
        let bytes = transcripts.values().map(|t| t.total_bytes() as u64).sum();
        (accepted, bytes)
    })
}

impl Workload for PvrRounds {
    fn teardown(&mut self) {
        self.beds.clear();
    }

    fn setup(&mut self, tr: &mut Tracer) {
        self.beds = tr.span("core", "build_beds", |tr| build_beds(self.seed, PVR_KEY_BITS, tr));
    }

    /// One operation is one round at each provider count, so that every
    /// operation does the same work and the latency has one mode (the
    /// median of single rounds sits on the boundary between two of the
    /// three provider counts and jumps between them run to run).
    fn op(&mut self, tr: &mut Tracer) -> Option<Rep> {
        let cycle = self.cycle;
        self.cycle += 1;
        let misbehaving = cycle % MISBEHAVE_EVERY == MISBEHAVE_EVERY - 1;
        tr.set_op(cycle);
        let mut ok = true;
        let mut bytes = 0;
        let t = Instant::now();
        for bed in &self.beds {
            if misbehaving {
                let catalog = Misbehavior::catalog(bed.ns[0]);
                let m =
                    catalog[((cycle / MISBEHAVE_EVERY) % catalog.len() as u64) as usize].clone();
                let report = tr.span("core", "misbehaving_round", |_| run_min_round(bed, Some(m)));
                self.injected += 1;
                self.detected += u64::from(report.detected());
                ok &= report.detected();
            } else if tr.on() {
                let (accepted, round_bytes) = traced_honest_round(bed, tr);
                ok &= accepted;
                bytes += round_bytes;
            } else {
                let report = run_min_round(bed, None);
                ok &= report.clean();
                bytes += report.transcripts.values().map(|t| t.total_bytes() as u64).sum::<u64>();
            }
        }
        let wall_s = t.elapsed().as_secs_f64();
        self.bytes = self.bytes.max(bytes);
        Some(Rep { wall_s, units: self.beds.len() as u64, ok, signature: String::new() })
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.op_bytes", self.bytes as f64),
            ("core.detected_ratio", self.detected as f64 / self.injected.max(1) as f64),
        ]
    }
}
