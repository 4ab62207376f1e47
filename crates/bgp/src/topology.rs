//! AS-level topologies: builder, instantiation, and generators.
//!
//! Provides the scenarios the paper's figures describe (Figure 1's star
//! around network A, with provider chains of configurable length so the
//! minimum operator has something to minimize) and Internet-like
//! topologies (tier-1 clique / tier-2 / stubs with Gao–Rexford roles)
//! for the scale experiment E14.

use crate::dampening::DampeningPolicy;
use crate::messages::BgpUpdate;
use crate::partition::partition_by_degree;
use crate::policy::{PolicyConfig, Role};
use crate::private::PrivateVerifier;
use crate::route::Community;
use crate::router::{BgpRouter, LocalEvent, RouterStats, SecurityMode};
use crate::sbgp::{SignQueue, VerifyCache};
use crate::types::{Asn, Prefix};
use pvr_crypto::drbg::{CounterStream, HmacDrbg};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_netsim::{FaultPlan, NodeId, RunLimits, SimDuration, SimTime, Simulator, StopReason};
use pvr_store::PMap;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Key material generated for signed mode: the shared verifying store
/// plus each AS's private identity.
type SignedKeys = (Arc<KeyStore>, BTreeMap<Asn, Arc<Identity>>);

/// An AS-to-AS business relationship edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edge {
    /// `provider` sells full transit to `customer`.
    ProviderCustomer {
        /// Transit seller.
        provider: Asn,
        /// Transit buyer.
        customer: Asn,
    },
    /// Settlement-free peering.
    Peering(Asn, Asn),
    /// `provider` sells *partial* transit to `customer`, limited to
    /// routes tagged with `region`.
    PartialTransit {
        /// Transit seller.
        provider: Asn,
        /// Partial-transit buyer.
        customer: Asn,
        /// Contracted route subset.
        region: Community,
    },
}

// Edges travel inside checkpoint META sections so a restored run can
// re-instantiate the exact network it was saved from.
pvr_crypto::wire_enum!(Edge {
    0 => ProviderCustomer { provider, customer },
    1 => Peering(a, b),
    2 => PartialTransit { provider, customer, region },
});

impl Edge {
    /// The two ASes the edge joins, whichever flavor: the provider
    /// first for a transit edge, in declaration order for a peering.
    pub fn endpoints(&self) -> (Asn, Asn) {
        match *self {
            Edge::ProviderCustomer { provider, customer }
            | Edge::PartialTransit { provider, customer, .. } => (provider, customer),
            Edge::Peering(a, b) => (a, b),
        }
    }
}

/// A declarative AS-level topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    ases: BTreeSet<Asn>,
    edges: Vec<Edge>,
    originations: BTreeMap<Asn, Vec<Prefix>>,
    /// (local, neighbor, community): local tags routes imported from
    /// neighbor with the community (enables partial-transit selections).
    region_tags: Vec<(Asn, Asn, Community)>,
    schedules: Vec<(Asn, SimDuration, LocalEvent)>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds an AS (idempotent).
    pub fn add_as(&mut self, asn: Asn) -> &mut Self {
        self.ases.insert(asn);
        self
    }

    /// Declares `provider` → `customer` transit.
    pub fn provider_customer(&mut self, provider: Asn, customer: Asn) -> &mut Self {
        self.add_as(provider).add_as(customer);
        self.edges.push(Edge::ProviderCustomer { provider, customer });
        self
    }

    /// Declares peering between `a` and `b`.
    pub fn peering(&mut self, a: Asn, b: Asn) -> &mut Self {
        self.add_as(a).add_as(b);
        self.edges.push(Edge::Peering(a, b));
        self
    }

    /// Declares partial transit from `provider` to `customer` covering
    /// `region`.
    pub fn partial_transit(
        &mut self,
        provider: Asn,
        customer: Asn,
        region: Community,
    ) -> &mut Self {
        self.add_as(provider).add_as(customer);
        self.edges.push(Edge::PartialTransit { provider, customer, region });
        self
    }

    /// `asn` originates `prefix` at simulation start.
    pub fn originate(&mut self, asn: Asn, prefix: Prefix) -> &mut Self {
        self.add_as(asn);
        self.originations.entry(asn).or_default().push(prefix);
        self
    }

    /// `local` stamps routes imported from `neighbor` with `region`.
    pub fn tag_region(&mut self, local: Asn, neighbor: Asn, region: Community) -> &mut Self {
        self.region_tags.push((local, neighbor, region));
        self
    }

    /// Schedules a local event at `asn` after `delay`.
    pub fn schedule(&mut self, asn: Asn, delay: SimDuration, event: LocalEvent) -> &mut Self {
        self.add_as(asn);
        self.schedules.push((asn, delay, event));
        self
    }

    /// All declared ASes.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ases.iter().copied()
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Number of relationship edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All relationship edges, in declaration order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The prefixes `asn` originates at simulation start.
    pub fn originated_by(&self, asn: Asn) -> &[Prefix] {
        self.originations.get(&asn).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Builds the RPKI-style origin-authorization table for this
    /// topology's declared originations: each origination authorizes
    /// its AS for the prefix *and everything it covers* (ROA maxLength
    /// semantics), so an unauthorized sub-prefix announcement is
    /// invalid, not unknown.
    pub fn origin_table(&self) -> OriginTable {
        let mut entries = Vec::new();
        for (&asn, prefixes) in &self.originations {
            for &p in prefixes {
                entries.push((p, asn));
            }
        }
        OriginTable::new(entries)
    }

    /// Customer-cone sizes: for each AS, the number of ASes (itself
    /// included) reachable by walking provider→customer edges downward.
    /// The standard proxy for how much traffic an AS carries; E12
    /// weights hijacked-traffic share by it.
    pub fn customer_cone_sizes(&self) -> BTreeMap<Asn, usize> {
        let mut down: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        for e in &self.edges {
            match *e {
                Edge::ProviderCustomer { provider, customer }
                | Edge::PartialTransit { provider, customer, .. } => {
                    down.entry(provider).or_default().push(customer);
                }
                Edge::Peering(..) => {}
            }
        }
        let mut cones = BTreeMap::new();
        for &asn in &self.ases {
            let mut seen = BTreeSet::new();
            let mut stack = vec![asn];
            while let Some(x) = stack.pop() {
                if seen.insert(x) {
                    stack.extend(down.get(&x).into_iter().flatten().copied());
                }
            }
            cones.insert(asn, seen.len());
        }
        cones
    }

    /// The neighbors of `asn` with the role each plays *relative to
    /// `asn`*.
    pub fn neighbor_roles(&self, asn: Asn) -> Vec<(Asn, Role)> {
        let mut out = Vec::new();
        for e in &self.edges {
            match *e {
                Edge::ProviderCustomer { provider, customer } => {
                    if provider == asn {
                        out.push((customer, Role::Customer));
                    } else if customer == asn {
                        out.push((provider, Role::Provider));
                    }
                }
                Edge::Peering(a, b) => {
                    if a == asn {
                        out.push((b, Role::Peer));
                    } else if b == asn {
                        out.push((a, Role::Peer));
                    }
                }
                Edge::PartialTransit { provider, customer, region } => {
                    if provider == asn {
                        out.push((customer, Role::PartialTransitCustomer { region }));
                    } else if customer == asn {
                        // From the customer's side a partial-transit seller
                        // is just a (limited) provider.
                        out.push((provider, Role::Provider));
                    }
                }
            }
        }
        out
    }

    /// Generates per-AS RSA identities for signed mode — always from
    /// the single `"bgp-identities"` DRBG stream in ascending-ASN
    /// order, so every shard count derives identical keys for the same
    /// seed.
    fn generate_identities(&self, options: InstantiateOptions) -> Option<SignedKeys> {
        if !options.signed {
            return None;
        }
        let mut rng = HmacDrbg::from_u64_labeled(options.seed, "bgp-identities");
        let mut ks = KeyStore::new();
        let mut ids = BTreeMap::new();
        for &asn in &self.ases {
            let id = Identity::generate(asn.principal(), options.key_bits, &mut rng);
            ks.register_identity(&id);
            ids.insert(asn, Arc::new(id));
        }
        Some((Arc::new(ks), ids))
    }

    /// Builds `asn`'s router (policy, security mode, MRAI, originations,
    /// scheduled events) — everything except neighbor wiring and
    /// verify-cache installation, which depend on node placement.
    fn build_router(
        &self,
        asn: Asn,
        keystore: &Option<SignedKeys>,
        options: InstantiateOptions,
    ) -> BgpRouter {
        let mut policy = PolicyConfig::new();
        for (neighbor, role) in self.neighbor_roles(asn) {
            policy.set_role(neighbor, role);
        }
        for &(local, neighbor, region) in &self.region_tags {
            if local == asn {
                policy.set_region_tag(neighbor, region);
            }
        }
        let security = match keystore {
            Some((ks, ids)) => SecurityMode::Signed {
                identity: Arc::clone(&ids[&asn]),
                keys: Arc::clone(ks),
                // Router-owned, keyed per AS from a DRBG seeded like the
                // MRAI jitter's.
                salts: CounterStream::from_drbg(&mut HmacDrbg::from_u64_labeled(
                    options.seed,
                    &format!("bgp-salt-{}", asn.0),
                )),
            },
            None => SecurityMode::Plain,
        };
        let mut router = BgpRouter::new(asn, policy, security);
        if let Some(interval) = options.mrai {
            router.set_mrai(interval);
        }
        if let Some(jitter) = options.mrai_jitter {
            // Router-owned jitter DRBG, seeded per AS: identical draws
            // whatever the shard layout (the engine hands agents no
            // randomness of its own).
            let rng = HmacDrbg::from_u64_labeled(options.seed, &format!("bgp-mrai-{}", asn.0));
            router.set_mrai_jitter(jitter, rng);
        }
        if options.dampening.is_some() {
            router.enable_dampening();
        }
        if let Some(window) = options.timeline_window {
            router.enable_timeline(window);
        }
        if options.journal_capacity > 0 {
            router.enable_journal(options.journal_capacity);
        }
        for p in self.originations.get(&asn).into_iter().flatten() {
            router.originate(*p);
        }
        for (s_asn, delay, event) in &self.schedules {
            if *s_asn == asn {
                router.schedule_event(*delay, event.clone());
            }
        }
        router
    }

    /// Instantiates the topology into a one-shard simulator:
    /// [`instantiate_sharded`](Self::instantiate_sharded) with
    /// `shards == 1`.
    ///
    /// `options` controls signing, key size and the router knobs. Returns
    /// the network handle used by experiments and examples.
    pub fn instantiate(&self, options: InstantiateOptions) -> BgpNetwork {
        self.instantiate_sharded(options, 1)
    }

    /// Instantiates the topology into a simulator, partitioning the AS
    /// graph across `shards` worker calendars (see
    /// [`crate::partition`]). Node ids, key material, and all
    /// deterministic run outputs are the same at every shard count.
    ///
    /// Signed mode installs one [`VerifyCache`] *per shard*: a shard's
    /// routers only ever run on that shard's worker thread, so
    /// per-router counter attribution stays exact with no cross-shard
    /// contention. One shard therefore has one network-wide memo — a
    /// chain already checked upstream is not re-verified limb by limb
    /// at every subsequent hop — and more shards trade reuse scope for
    /// parallelism: cache hits can only be fewer, never different
    /// verdicts.
    ///
    /// Signed mode on a host with more cores than `shards` also gives
    /// the network one sign-ahead queue with `cores − shards` helpers,
    /// where `cores` is [`std::thread::available_parallelism`] read
    /// here, once: every [`converge`](BgpNetwork::converge) call runs
    /// them all, signing the attestations routers have made before the
    /// receivers read them. With no core to spare there is no queue, and
    /// every signature is made by its first reader.
    pub fn instantiate_sharded(&self, options: InstantiateOptions, shards: usize) -> BgpNetwork {
        let shards = shards.max(1);
        let mut sim: Simulator<BgpUpdate> = Simulator::with_shards(options.seed, shards);
        if let Some(window) = options.timeline_window {
            sim.enable_timeline(window);
        }

        // Key material (signed mode only).
        let keystore = self.generate_identities(options);
        let verify_caches: Vec<Arc<VerifyCache>> = if keystore.is_some() {
            (0..shards).map(|_| Arc::new(VerifyCache::new())).collect()
        } else {
            Vec::new()
        };
        let helpers = if keystore.is_some() {
            std::thread::available_parallelism().map_or(1, |n| n.get()).saturating_sub(shards)
        } else {
            0
        };
        let sign_queue = (helpers > 0).then(|| Arc::new(SignQueue::new(helpers)));

        // Unlike the verify cache, the private verifier is network-wide
        // at every shard count: it is flushed at engine barriers and
        // its flush sorts requests by the shard-invariant `(asn, seq)`
        // key, so one shared service produces byte-identical outputs
        // with no per-shard carve-out.
        let private_verifier = new_private_verifier(options);

        // First pass: create routers so node ids are known.
        let assignment = partition_by_degree(self, shards);
        let mut node_of = BTreeMap::new();
        for &asn in &self.ases {
            let mut router = self.build_router(asn, &keystore, options);
            let shard = assignment[&asn];
            if let Some(cache) = verify_caches.get(shard) {
                router.set_verify_cache(Arc::clone(cache));
            }
            if let Some(queue) = &sign_queue {
                router.set_sign_queue(Arc::clone(queue));
            }
            if let Some(verifier) = &private_verifier {
                router.set_private_verifier(Arc::clone(verifier));
            }
            let node = sim.add_node_to_shard(Box::new(router), shard);
            node_of.insert(asn, node);
        }

        // Second pass: wire neighbors.
        for &asn in &self.ases {
            let node = node_of[&asn];
            let neighbors = self.neighbor_roles(asn);
            let router = sim.node_mut::<BgpRouter>(node).expect("router downcast");
            for (neighbor, _) in neighbors {
                router.add_neighbor(neighbor, node_of[&neighbor]);
            }
        }

        if let Some(verifier) = &private_verifier {
            verifier.set_node_map(node_of.clone());
            sim.set_barrier_hook(PrivateVerifier::hook(verifier));
        }

        BgpNetwork {
            sim,
            node_of,
            keystore: keystore.map(|(ks, _)| ks),
            verify_caches,
            sign_queue,
            private_verifier,
            topology: self.clone(),
            options,
            rib_history: Vec::new(),
        }
    }
}

// A checkpoint embeds the full topology (META section), so
// `restore(path)` is self-contained: static router state regenerates
// from this declaration and only dynamic state rides in the file.
pvr_crypto::wire_struct!(Topology { ases, edges, originations, region_tags, schedules });

/// Builds the shared [`PrivateVerifier`] when the options ask for one.
/// The verifier's SMC timeline uses the observability window when set
/// (so e17's SMC timeline aligns with the e15-style windows), falling
/// back to 5 ms.
fn new_private_verifier(options: InstantiateOptions) -> Option<Arc<PrivateVerifier>> {
    options.private_verification.then(|| {
        Arc::new(PrivateVerifier::new(
            options.seed,
            options.smc_lane_cap,
            options.timeline_window.unwrap_or_else(|| SimDuration::from_millis(5)),
        ))
    })
}

/// Options for [`Topology::instantiate`].
#[derive(Clone, Copy, Debug)]
pub struct InstantiateOptions {
    /// Simulation seed (drives MRAI jitter and key generation).
    pub seed: u64,
    /// Enable S-BGP attestations.
    pub signed: bool,
    /// RSA modulus size when signing (tests use small keys for speed;
    /// benchmarks use 1024 to reproduce the paper's §3.8 numbers).
    pub key_bits: usize,
    /// Optional MRAI batching interval applied to every router.
    pub mrai: Option<SimDuration>,
    /// Optional upper bound on the per-arm random MRAI delay; each
    /// router draws from its own `(seed, asn)`-labeled DRBG so the
    /// jitter is identical across shard counts.
    pub mrai_jitter: Option<SimDuration>,
    /// Route-flap dampening on every router when `Some` (the
    /// thresholds are the constants in [`crate::dampening`]).
    pub dampening: Option<DampeningPolicy>,
    /// Enables the observability layer: convergence-timeline recorders
    /// on the simulator and on every router, with sim-time windows of
    /// this width. `None` (the default) records nothing and adds no
    /// per-event work.
    pub timeline_window: Option<SimDuration>,
    /// Per-router event-journal ring capacity (most recent events kept
    /// for forensic JSONL dumps); `0` (the default) disables the
    /// journal.
    pub journal_capacity: usize,
    /// Enables private (SMC-based) verification of route selections:
    /// one shared [`PrivateVerifier`] across the network, flushed at
    /// engine barriers through bit-sliced GMW passes and charged as
    /// sim-time latency. The paper's PVR mode combines this with
    /// `signed: true` (attestations remain the integrity substrate).
    pub private_verification: bool,
    /// Lanes per SMC batch (1..=64; clamped). Only read when
    /// `private_verification` is set.
    pub smc_lane_cap: usize,
}

impl Default for InstantiateOptions {
    fn default() -> Self {
        InstantiateOptions {
            seed: 0,
            signed: false,
            key_bits: 512,
            mrai: None,
            mrai_jitter: None,
            dampening: None,
            timeline_window: None,
            journal_capacity: 0,
            private_verification: false,
            smc_lane_cap: pvr_smc::MAX_LANES,
        }
    }
}

// Options ride inside checkpoint META sections: restore re-runs
// `instantiate` with the saved options, so key generation, jitter
// DRBG seeding, and every policy knob come back identical.
pvr_crypto::wire_struct!(InstantiateOptions {
    seed,
    signed,
    key_bits,
    mrai,
    mrai_jitter,
    dampening,
    timeline_window,
    journal_capacity,
    private_verification,
    smc_lane_cap,
});

/// RPKI-style origin authorizations: which AS may originate each
/// prefix. An announcement is *invalid* when some entry covers its
/// prefix but no covering entry matches its origin AS; announcements
/// of prefixes no entry covers are *unknown* and accepted, mirroring
/// route-origin validation deployment reality.
///
/// Every announcement a router accepts is checked, so the entries are
/// indexed by prefix: a covering entry's prefix is the announced one cut
/// to the entry's length, and [`permits`](Self::permits) probes one cut
/// per distinct entry length instead of scanning every entry.
#[derive(Clone, Debug, Default)]
pub struct OriginTable {
    /// (authorized prefix, authorized origin) pairs, as given: the wire
    /// form.
    entries: Vec<(Prefix, Asn)>,
    /// The origins each listed prefix authorizes.
    origins: HashMap<Prefix, Vec<Asn>>,
    /// The distinct lengths of the listed prefixes, ascending.
    lengths: Vec<u8>,
}

impl OriginTable {
    /// Builds a table from explicit (prefix, origin) authorizations.
    pub fn new(entries: Vec<(Prefix, Asn)>) -> OriginTable {
        let mut origins: HashMap<Prefix, Vec<Asn>> = HashMap::new();
        for &(prefix, asn) in &entries {
            origins.entry(prefix).or_default().push(asn);
        }
        let mut lengths: Vec<u8> = origins.keys().map(Prefix::len).collect();
        lengths.sort_unstable();
        lengths.dedup();
        OriginTable { entries, origins, lengths }
    }

    /// May `origin` announce `announced`?
    pub fn permits(&self, announced: Prefix, origin: Asn) -> bool {
        let mut covered = false;
        for &len in self.lengths.iter().take_while(|&&len| len <= announced.len()) {
            if let Some(origins) = self.origins.get(&Prefix::new(announced.addr(), len)) {
                if origins.contains(&origin) {
                    return true;
                }
                covered = true;
            }
        }
        !covered
    }

    /// Number of authorization entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no authorizations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// Origin tables are installed imperatively (not part of the topology
// declaration), so checkpoints embed them in the META section to keep
// restored networks rejecting unauthorized origins. Only the entries
// travel; the index is rebuilt on decode.
impl Wire for OriginTable {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.entries.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OriginTable::new(Wire::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.entries.encoded_len()
    }
}

/// Label set shared by every network-level metric series.
fn metric_labels(security_mode: &str) -> pvr_obs::LabelSet {
    vec![("security_mode", security_mode.to_string())]
}

/// Network-level gauge series: RIB sizes and the verify-cache hit
/// ratio. The hit ratio derives from `verify_cache_hits` — the one
/// counter allowed to differ between shard counts, because caches are
/// per shard (see [`RouterStats::shard_invariant`]) — so cross-shard
/// comparisons must drop it alongside the counter.
fn export_network_gauges(
    snapshot: &mut pvr_obs::Snapshot,
    labels: &pvr_obs::LabelSet,
    totals: &RouterStats,
    adj_rib_in: u64,
    loc_rib: u64,
) {
    use pvr_obs::Value::Gauge;
    snapshot.add("pvr_adj_rib_in_entries", labels, Gauge(adj_rib_in as f64));
    snapshot.add("pvr_loc_rib_entries", labels, Gauge(loc_rib as f64));
    let ratio = if totals.verify_calls > 0 {
        totals.verify_cache_hits as f64 / totals.verify_calls as f64
    } else {
        0.0
    };
    snapshot.add("pvr_verify_cache_hit_ratio", labels, Gauge(ratio));
}

/// Merges per-router event journals into one globally time-ordered
/// JSONL stream. Ties at the same instant break by ASN; within one
/// router the journal's own order is kept (the sort is stable).
fn merge_trace_jsonl<'a>(routers: impl Iterator<Item = (Asn, &'a BgpRouter)>) -> String {
    use std::fmt::Write as _;
    let mut entries: Vec<(u64, u32, &'static str, u64)> = Vec::new();
    for (asn, router) in routers {
        for e in router.journal().entries() {
            entries.push((e.t_us, asn.0, e.kind, e.value));
        }
    }
    entries.sort_by_key(|&(t, asn, _, _)| (t, asn));
    let mut out = String::new();
    for (t, asn, kind, value) in entries {
        writeln!(out, "{{\"t_us\":{t},\"router\":{asn},\"event\":\"{kind}\",\"value\":{value}}}")
            .expect("write to String");
    }
    out
}

/// An instantiated network: simulator plus AS → node mapping.
pub struct BgpNetwork {
    /// The underlying simulator.
    pub sim: Simulator<BgpUpdate>,
    node_of: BTreeMap<Asn, NodeId>,
    keystore: Option<Arc<KeyStore>>,
    verify_caches: Vec<Arc<VerifyCache>>,
    /// Attestations waiting for a helper thread (signed mode with
    /// spare cores only).
    sign_queue: Option<Arc<SignQueue>>,
    private_verifier: Option<Arc<PrivateVerifier>>,
    /// The declaration this network was instantiated from; embedded in
    /// checkpoints so restore is self-contained.
    pub(crate) topology: Topology,
    /// The options this network was instantiated with.
    pub(crate) options: InstantiateOptions,
    /// Copy-on-write RIB snapshots, ascending by capture time (see
    /// [`crate::checkpoint`]).
    pub(crate) rib_history: Vec<(SimTime, PMap)>,
}

/// Compatibility name for `benchmark/`, which is frozen outside
/// benchmark PRs and still names the k-shard network type. Deletable by
/// the next benchmark PR; nothing else may use it.
#[doc(hidden)]
pub type ShardedBgpNetwork = BgpNetwork;

impl BgpNetwork {
    /// Runs the network to quiescence (or the given limits). A signed
    /// network with a sign-ahead queue runs all its helper threads for
    /// the length of the call; none outlives it.
    pub fn converge(&mut self, limits: RunLimits) -> StopReason {
        self.run_engine(|net| net.sim.run(limits))
    }

    /// Runs `work`, which drives this network's engine, with a signed
    /// network's sign-ahead helpers (as many as
    /// [`Topology::instantiate_sharded`] decided) signing beside it
    /// until `work` returns.
    pub(crate) fn run_engine<R>(&mut self, work: impl FnOnce(&mut BgpNetwork) -> R) -> R {
        match self.sign_queue.clone() {
            Some(queue) => queue.with_helpers(|| work(self)),
            None => work(self),
        }
    }

    /// The simulator node hosting `asn`.
    pub fn node_of(&self, asn: Asn) -> NodeId {
        self.node_of[&asn]
    }

    /// Read access to `asn`'s router.
    pub fn router(&self, asn: Asn) -> &BgpRouter {
        self.sim.node::<BgpRouter>(self.node_of[&asn]).expect("router downcast")
    }

    /// Mutable access to `asn`'s router.
    pub fn router_mut(&mut self, asn: Asn) -> &mut BgpRouter {
        let node = self.node_of[&asn];
        self.sim.node_mut::<BgpRouter>(node).expect("router downcast")
    }

    /// The shared key store in signed mode.
    pub fn keystore(&self) -> Option<&Arc<KeyStore>> {
        self.keystore.as_ref()
    }

    /// The per-shard attestation-verification caches in signed mode
    /// (empty in plain mode), indexed by shard.
    pub fn verify_caches(&self) -> &[Arc<VerifyCache>] {
        &self.verify_caches
    }

    /// The network-wide private-verification service when the network
    /// was instantiated with
    /// [`InstantiateOptions::private_verification`] set. One verifier
    /// serves every shard: flush order is keyed on `(asn, seq)`, not on
    /// shard scheduling, so its outputs are shard-count invariant.
    pub fn private_verifier(&self) -> Option<&Arc<PrivateVerifier>> {
        self.private_verifier.as_ref()
    }

    /// Installs an origin-authorization table on every router. Call
    /// before running: the check applies to announcements received
    /// afterwards.
    pub fn install_origin_table(&mut self, table: Arc<OriginTable>) {
        let ases: Vec<Asn> = self.node_of.keys().copied().collect();
        for asn in ases {
            self.router_mut(asn).set_origin_table(Arc::clone(&table));
        }
    }

    /// All ASes in the network.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.node_of.keys().copied()
    }

    /// Network-wide router-counter totals. Built by commutative
    /// addition, so the result is independent of iteration order.
    pub fn router_totals(&self) -> RouterStats {
        let mut total = RouterStats::default();
        for asn in self.ases() {
            total.add(self.router(asn).stats());
        }
        total
    }

    /// Network-wide RIB entry totals `(adj_rib_in, loc_rib)`.
    fn rib_totals(&self) -> (u64, u64) {
        let mut adj = 0u64;
        let mut loc = 0u64;
        for asn in self.ases() {
            let (a, l) = self.router(asn).rib_entry_counts();
            adj += a as u64;
            loc += l as u64;
        }
        (adj, loc)
    }

    /// One deterministic network-wide metrics snapshot: simulator and
    /// router counters, the private verifier's [`SmcBatchStats`]
    /// counters when there is one, plus RIB-size and
    /// verify-cache-hit-ratio gauges, every series labelled
    /// `security_mode=<mode>`. Identical at every shard count except
    /// for series derived from `verify_cache_hits` (the per-shard cache
    /// carve-out).
    ///
    /// [`SmcBatchStats`]: crate::SmcBatchStats
    pub fn metrics_snapshot(&self, security_mode: &str) -> pvr_obs::Snapshot {
        let labels = metric_labels(security_mode);
        let mut snapshot = pvr_obs::Snapshot::default();
        self.sim.stats().export_metrics(&mut snapshot, &labels);
        if let Some(verifier) = &self.private_verifier {
            verifier.stats().export_metrics(&mut snapshot, &labels);
        }
        let totals = self.router_totals();
        totals.export_metrics(&mut snapshot, &labels);
        let (adj, loc) = self.rib_totals();
        export_network_gauges(&mut snapshot, &labels, &totals, adj, loc);
        snapshot
    }

    /// Assembles the per-window convergence timeline from the
    /// simulator and router recorders. `None` unless the network was
    /// instantiated with [`InstantiateOptions::timeline_window`] set.
    /// Identical at every shard count except for the
    /// `verify_cache_hits` channel.
    pub fn convergence_timeline(&self) -> Option<pvr_obs::ConvergenceTimeline> {
        let sim_tl = self.sim.timeline()?;
        let mut routers =
            pvr_obs::TimelineRecorder::new(sim_tl.window_us(), pvr_obs::timeline::RT_CHANNELS);
        for asn in self.ases() {
            if let Some(tl) = self.router(asn).timeline() {
                routers.merge(tl);
            }
        }
        Some(pvr_obs::ConvergenceTimeline::assemble(sim_tl, &routers))
    }

    /// Per-router event journals merged into one time-ordered JSONL
    /// trace; empty unless the network was instantiated with a nonzero
    /// [`InstantiateOptions::journal_capacity`]. Byte-identical at
    /// every shard count (journals record verify *calls*, never cache
    /// hits).
    pub fn trace_jsonl(&self) -> String {
        merge_trace_jsonl(self.ases().map(|asn| (asn, self.router(asn))))
    }

    /// Installs a scheduled fault plan into the simulator (node ids
    /// from [`BgpNetwork::node_of`]). Faults fire at exact sim times;
    /// the same plan produces byte-identical runs at any shard count.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.sim.set_fault_plan(plan);
    }
}

/// The Figure 1 scenario: "Network A is connected to neighbors
/// N1, …, Nk and B … N1 through Nk each advertise to network A a route
/// r_i to some prefix, and A has promised to network B that it would
/// export the shortest of these routes."
///
/// Each N_i sits atop a provider chain of length `chain_lens[i]` leading
/// down to a common origin AS, so the routes r_i arrive at A with
/// different AS-path lengths. Returns the topology plus the cast of
/// characters.
pub fn figure1(chain_lens: &[usize]) -> (Topology, Figure1Cast) {
    assert!(!chain_lens.is_empty());
    let a = Asn(100);
    let b = Asn(200);
    let origin = Asn(999);
    let prefix = Prefix::parse("10.0.0.0/8").unwrap();
    let mut t = Topology::new();
    let mut ns = Vec::with_capacity(chain_lens.len());
    for (i, &len) in chain_lens.iter().enumerate() {
        let n_i = Asn(1 + i as u32);
        ns.push(n_i);
        // Chain: origin → c_1 → … → c_{len} → N_i, customer upward.
        // chain_lens[i] = number of intermediate ASes, so r_i's path
        // length at A is len + 2 (N_i + intermediates + origin).
        let mut below = origin;
        for j in 0..len {
            let c = Asn(1000 + (i as u32) * 100 + j as u32);
            t.provider_customer(c, below);
            below = c;
        }
        t.provider_customer(n_i, below);
        // N_i sells transit to A.
        t.provider_customer(n_i, a);
    }
    // A sells transit to B.
    t.provider_customer(a, b);
    t.originate(origin, prefix);
    (t, Figure1Cast { a, b, ns, origin, prefix })
}

/// The participants of the [`figure1`] scenario.
#[derive(Clone, Debug)]
pub struct Figure1Cast {
    /// The committing network A.
    pub a: Asn,
    /// The customer B receiving A's promise.
    pub b: Asn,
    /// The upstream neighbors N_1..N_k.
    pub ns: Vec<Asn>,
    /// The common origin AS behind the chains.
    pub origin: Asn,
    /// The contested prefix.
    pub prefix: Prefix,
}

/// Most tier-1 providers an [`internet_like`] tier-2 AS buys transit
/// from.
pub const T2_MAX_PROVIDERS: usize = 3;
/// Most tier-2 providers an [`internet_like`] stub buys transit from.
pub const STUB_MAX_PROVIDERS: usize = 2;

/// Parameters for [`internet_like`].
#[derive(Clone, Copy)]
pub struct InternetParams {
    /// Number of tier-1 (clique) ASes.
    pub tier1: usize,
    /// Number of tier-2 ASes.
    pub tier2: usize,
    /// Number of stub ASes (at most 65 536 may *originate*, the /24
    /// numbering scheme's limit; silent stubs are unbounded).
    pub stubs: usize,
    /// Probability of tier-2 ↔ tier-2 peering.
    pub t2_peering_prob: f64,
    /// How many stubs originate a /24 (the first `n` by index; the rest
    /// are silent multihomed leaves). Workload knob for the scale
    /// experiment E14: propagation cost grows with ASes × origins, so
    /// internet-scale topologies cap origins to keep RIBs bounded.
    /// Defaults to `usize::MAX` (every stub originates, the pre-E14
    /// behavior).
    pub originating_stubs: usize,
}

impl Default for InternetParams {
    fn default() -> Self {
        InternetParams {
            tier1: 4,
            tier2: 12,
            stubs: 40,
            t2_peering_prob: 0.2,
            originating_stubs: usize::MAX,
        }
    }
}

impl std::fmt::Debug for InternetParams {
    /// Prints the size/shape fields always, and the origination knob
    /// only when it differs from the default — so experiment headers
    /// that predate it (E12's matrix banner) render byte-identically.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("InternetParams");
        d.field("tier1", &self.tier1)
            .field("tier2", &self.tier2)
            .field("stubs", &self.stubs)
            .field("t2_peering_prob", &self.t2_peering_prob);
        if self.originating_stubs != usize::MAX {
            d.field("originating_stubs", &self.originating_stubs);
        }
        d.finish()
    }
}

/// Generates an Internet-like topology: a tier-1 peering clique, tier-2
/// ASes multihomed to tier-1 providers with some lateral peering, and
/// stub ASes multihomed to tier-2 providers. The first
/// `originating_stubs` stubs originate one /24 each. Each tier-2 AS
/// draws 1..=[`T2_MAX_PROVIDERS`] tier-1 providers and each stub
/// 1..=[`STUB_MAX_PROVIDERS`] tier-2 providers, clamped to the tier's
/// size. Deterministic in `seed`.
pub fn internet_like(params: InternetParams, seed: u64) -> Topology {
    // Only *originating* stubs consume the /24 numbering space; silent
    // multihomed leaves are unconstrained, which is what lets the 80k-AS
    // scale ladder exist (80k stubs, a capped origination budget).
    assert!(
        params.stubs.min(params.originating_stubs) <= 65_536,
        "stub /24 numbering supports at most 65 536 originating stubs"
    );
    let mut rng = HmacDrbg::from_u64_labeled(seed, "internet-topology");
    let mut t = Topology::new();
    let t1: Vec<Asn> = (0..params.tier1).map(|i| Asn(10 + i as u32)).collect();
    let t2: Vec<Asn> = (0..params.tier2).map(|i| Asn(100 + i as u32)).collect();
    // Stub ASNs start at 1000; tier-2 ASNs (100+) stay clear of them
    // as long as tier2 ≤ 900, which `as_count` scales never exceed.
    assert!(params.tier2 <= 900, "tier-2 ASN range would collide with stub ASNs");
    let stubs: Vec<Asn> = (0..params.stubs).map(|i| Asn(1000 + i as u32)).collect();

    // Tier-1 full-mesh peering.
    for i in 0..t1.len() {
        for j in i + 1..t1.len() {
            t.peering(t1[i], t1[j]);
        }
    }
    // Tier-2: multihomed to tier-1 providers; lateral peering by coin
    // flip.
    for &x in &t2 {
        let nprov = 1 + rng.below((T2_MAX_PROVIDERS as u64).min(t1.len() as u64));
        let mut provs = t1.clone();
        rng.shuffle(&mut provs);
        for &p in provs.iter().take(nprov as usize) {
            t.provider_customer(p, x);
        }
    }
    for i in 0..t2.len() {
        for j in i + 1..t2.len() {
            if rng.chance(params.t2_peering_prob) {
                t.peering(t2[i], t2[j]);
            }
        }
    }
    // Stubs: multihomed to tier-2 providers; one /24 each while the
    // origination budget lasts.
    for (i, &s) in stubs.iter().enumerate() {
        let nprov = 1 + rng.below((STUB_MAX_PROVIDERS as u64).min(t2.len() as u64));
        let mut provs = t2.clone();
        rng.shuffle(&mut provs);
        for &p in provs.iter().take(nprov as usize) {
            t.provider_customer(p, s);
        }
        if i < params.originating_stubs {
            let prefix = Prefix::new(
                (10u32 << 24) | (((i as u32 >> 8) & 0xff) << 16) | ((i as u32 & 0xff) << 8),
                24,
            );
            t.originate(s, prefix);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `OriginTable::permits` as a scan over every entry: the definition
    /// the indexed table must keep.
    fn permits_by_scan(entries: &[(Prefix, Asn)], announced: Prefix, origin: Asn) -> bool {
        let mut covered = false;
        for &(p, asn) in entries {
            if p.covers(&announced) {
                if asn == origin {
                    return true;
                }
                covered = true;
            }
        }
        !covered
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed table answers as the scan does, and so does its
        /// decoded copy. Entries cut up to three base addresses at every
        /// length 0–32, so they nest and overlap, and a prefix is often
        /// listed for several of four origins (and sometimes twice for
        /// one); announcements sit on a base, one bit away from it, or
        /// anywhere, at any length, from one of six origins.
        #[test]
        fn prop_indexed_origin_table_is_the_scan(
            bases in proptest::collection::vec(any::<u32>(), 1..4),
            listed in proptest::collection::vec((0usize..3, 0u8..=32, 1u32..5), 0..40),
            asked in proptest::collection::vec((0usize..3, 0u8..=32, any::<u32>(), 0u32..6), 1..60),
        ) {
            let base = |b: usize| bases[b % bases.len()];
            let entries: Vec<(Prefix, Asn)> =
                listed.iter().map(|&(b, len, asn)| (Prefix::new(base(b), len), Asn(asn))).collect();
            let table = OriginTable::new(entries.clone());
            let decoded: OriginTable = pvr_crypto::decode_exact(&table.to_wire()).expect("decodes");
            prop_assert_eq!(decoded.to_wire(), table.to_wire());
            prop_assert_eq!(table.len(), entries.len());
            for &(b, len, noise, origin) in &asked {
                let addr = match noise % 3 {
                    0 => base(b),
                    1 => base(b) ^ (1 << (noise >> 27)),
                    _ => noise,
                };
                let (announced, origin) = (Prefix::new(addr, len), Asn(origin));
                let expected = permits_by_scan(&entries, announced, origin);
                prop_assert_eq!(table.permits(announced, origin), expected, "{:?} from {:?}", announced, origin);
                prop_assert_eq!(decoded.permits(announced, origin), expected);
            }
        }
    }

    #[test]
    fn builder_accumulates() {
        let mut t = Topology::new();
        t.provider_customer(Asn(1), Asn(2))
            .peering(Asn(2), Asn(3))
            .partial_transit(Asn(3), Asn(4), Community(65000, 1))
            .originate(Asn(4), Prefix::parse("10.0.0.0/8").unwrap());
        assert_eq!(t.as_count(), 4);
        assert_eq!(t.edge_count(), 3);
        let roles = t.neighbor_roles(Asn(2));
        assert!(roles.contains(&(Asn(1), Role::Provider)));
        assert!(roles.contains(&(Asn(3), Role::Peer)));
        // Partial-transit seller looks like a provider from below.
        let roles4 = t.neighbor_roles(Asn(4));
        assert_eq!(roles4, vec![(Asn(3), Role::Provider)]);
        let roles3 = t.neighbor_roles(Asn(3));
        assert!(roles3
            .contains(&(Asn(4), Role::PartialTransitCustomer { region: Community(65000, 1) })));
    }

    #[test]
    fn figure1_shape() {
        let (t, cast) = figure1(&[0, 1, 2]);
        assert_eq!(cast.ns.len(), 3);
        // A's neighbors: N1..N3 as providers, B as customer.
        let roles = t.neighbor_roles(cast.a);
        assert_eq!(roles.len(), 4);
        assert!(roles.contains(&(cast.b, Role::Customer)));
        for &n in &cast.ns {
            assert!(roles.contains(&(n, Role::Provider)));
        }
    }

    #[test]
    fn figure1_converges_with_correct_path_lengths() {
        let (t, cast) = figure1(&[0, 1, 2]);
        let mut net = t.instantiate(InstantiateOptions::default());
        assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
        // A hears one route per N_i with path length chain+2.
        for (i, &n) in cast.ns.iter().enumerate() {
            let r = net.router(cast.a).route_from(n, cast.prefix).expect("route from N_i");
            assert_eq!(r.path_len(), i + 2, "N{} chain", i + 1);
        }
        // A's best is via N1 (shortest), and B received it.
        let best = net.router(cast.a).best_route(cast.prefix).unwrap();
        assert_eq!(best.learned_from, Some(cast.ns[0]));
        let at_b = net.router(cast.b).route_from(cast.a, cast.prefix).expect("B's route");
        assert_eq!(at_b.path.first_as(), Some(cast.a));
        assert_eq!(at_b.path_len(), 3); // A, N1, origin
    }

    #[test]
    fn internet_like_is_deterministic() {
        let a = internet_like(InternetParams::default(), 42);
        let b = internet_like(InternetParams::default(), 42);
        assert_eq!(a.as_count(), b.as_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let c = internet_like(InternetParams::default(), 43);
        // Different seeds virtually always differ in edge count.
        assert!(a.edge_count() != c.edge_count() || a.as_count() == c.as_count());
    }

    #[test]
    fn internet_like_converges() {
        let params = InternetParams {
            tier1: 3,
            tier2: 5,
            stubs: 8,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let t = internet_like(params, 7);
        let mut net = t.instantiate(InstantiateOptions::default());
        assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
        // Every stub prefix must be reachable from every tier-1.
        let stub_prefixes: Vec<Prefix> =
            (0..8).map(|i| Prefix::new((10u32 << 24) | ((i as u32 & 0xff) << 8), 24)).collect();
        for t1 in [Asn(10), Asn(11), Asn(12)] {
            for &p in &stub_prefixes {
                assert!(net.router(t1).best_route(p).is_some(), "{t1} missing {p}");
            }
        }
    }

    #[test]
    fn instantiation_is_shard_count_invariant() {
        let params = InternetParams {
            tier1: 3,
            tier2: 5,
            stubs: 12,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let t = internet_like(params, 21);
        let options = InstantiateOptions { seed: 21, ..Default::default() };

        let mut one = t.instantiate(options);
        assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);

        for shards in [2, 3, 5] {
            let mut many = t.instantiate_sharded(options, shards);
            // Node ids must be assigned identically regardless of shard
            // placement.
            for asn in t.ases() {
                assert_eq!(one.node_of(asn), many.node_of(asn));
            }
            assert_eq!(many.converge(RunLimits::none()), StopReason::Quiescent);
            assert_eq!(one.sim.stats(), many.sim.stats(), "{shards} shards");
            assert_eq!(one.sim.now(), many.sim.now(), "{shards} shards");
            assert_eq!(one.router_totals(), many.router_totals(), "{shards} shards");
            for asn in t.ases() {
                assert_eq!(
                    one.router(asn).stats(),
                    many.router(asn).stats(),
                    "{asn} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn private_verification_is_shard_count_invariant() {
        let params = InternetParams {
            tier1: 3,
            tier2: 5,
            stubs: 12,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let t = internet_like(params, 21);
        let options = InstantiateOptions {
            seed: 21,
            private_verification: true,
            smc_lane_cap: 8,
            ..Default::default()
        };

        let mut one = t.instantiate(options);
        assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);
        let one_stats = one.private_verifier().expect("verifier").stats();
        // Honest routers always select a shortest top-preference path,
        // so every private verdict passes; multi-candidate ties do
        // occur in this topology, so the service actually ran.
        assert!(one_stats.requests > 0);
        assert!(one_stats.batches > 0);
        assert_eq!(one_stats.verdict_fail, 0);
        assert_eq!(one_stats.verdicts_delivered, one_stats.requests);
        let one_snapshot = one.metrics_snapshot("private").shard_invariant();
        assert_eq!(one_snapshot.counter_value("pvr_smc_requests_total"), Some(one_stats.requests));

        for shards in [2, 4] {
            let mut many = t.instantiate_sharded(options, shards);
            assert_eq!(many.converge(RunLimits::none()), StopReason::Quiescent);
            let many_stats = many.private_verifier().expect("verifier").stats();
            assert_eq!(one_stats, many_stats, "{shards} shards");
            assert_eq!(one.sim.now(), many.sim.now(), "{shards} shards");
            assert_eq!(one.router_totals(), many.router_totals(), "{shards} shards");
            // The SMC counters need no carve-out; the routers' cache
            // hits do.
            assert_eq!(
                one_snapshot,
                many.metrics_snapshot("private").shard_invariant(),
                "{shards} shards"
            );
            assert_eq!(
                one.private_verifier().unwrap().timeline(),
                many.private_verifier().unwrap().timeline(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn private_verification_leaves_routing_outcomes_unchanged() {
        let (t, cast) = figure1(&[0, 1, 2]);
        let mut plain = t.instantiate(InstantiateOptions::default());
        assert_eq!(plain.converge(RunLimits::none()), StopReason::Quiescent);
        let mut private =
            t.instantiate(InstantiateOptions { private_verification: true, ..Default::default() });
        assert_eq!(private.converge(RunLimits::none()), StopReason::Quiescent);
        // The verifier observes selections and charges time; it never
        // changes which route wins.
        for asn in t.ases() {
            assert_eq!(
                plain.router(asn).best_route(cast.prefix),
                private.router(asn).best_route(cast.prefix),
                "{asn}"
            );
        }
    }

    /// A signed network has a sign queue iff the host has more cores
    /// than shards; a plain network never has one.
    #[test]
    fn sign_queue_iff_a_core_is_spare() {
        let (t, _) = figure1(&[0]);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let signed = InstantiateOptions { signed: true, key_bits: 512, ..Default::default() };
        for shards in [1, cores] {
            let spare = cores > shards;
            assert_eq!(t.instantiate_sharded(signed, shards).sign_queue.is_some(), spare);
            let plain = t.instantiate_sharded(InstantiateOptions::default(), shards);
            assert!(plain.sign_queue.is_none());
        }
    }

    #[test]
    fn signed_mode_end_to_end() {
        let (t, cast) = figure1(&[0, 1]);
        let mut net =
            t.instantiate(InstantiateOptions { signed: true, key_bits: 512, ..Default::default() });
        net.converge(RunLimits::none());
        // Convergence must match plain mode and no attestation failures.
        let best = net.router(cast.a).best_route(cast.prefix).unwrap();
        assert_eq!(best.learned_from, Some(cast.ns[0]));
        for asn in net.ases().collect::<Vec<_>>() {
            assert_eq!(net.router(asn).stats().attestation_failures, 0, "{asn}");
        }
        assert!(net.keystore().is_some());
    }
}
