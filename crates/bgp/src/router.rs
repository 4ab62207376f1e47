//! The BGP speaker: a [`pvr_netsim::Agent`] that maintains RIBs, runs
//! the decision process, applies policy, and (optionally) signs and
//! verifies route attestations.
//!
//! Implemented features: UPDATE processing with implicit withdraw,
//! per-neighbor export with Gao–Rexford/partial-transit policy,
//! loop rejection, S-BGP attestation signing/verification, scheduled
//! originations/withdrawals (for workloads), per-router statistics.
//!
//! ## Propagation cost model
//!
//! Everything the router knows about one prefix — the candidates heard
//! (Adj-RIB-In), the route selected (Loc-RIB), the route sent and who
//! holds it (Adj-RIB-Out), the local origination — lives in one boxed
//! `PrefixCell` behind one `HashMap<Prefix, _>`. A delivered UPDATE
//! carrying one route, the common case, hashes its prefix once: import,
//! decision and export all run on the cell that lookup found. An UPDATE
//! carrying several applies each item to its cell and then settles the
//! touched prefixes in sorted order (a second lookup each), which is
//! what keeps emitted updates and journal entries independent of item
//! order. Once the message is attributed to its session, nothing on
//! that path hashes a neighbor: the session list carries each
//! neighbor's role and region tag, resolved when the session was
//! configured, and export walks that list against the cell's
//! ASN-sorted holder list as a merge.
//!
//! The propagated route (path prepended once) is built a single time
//! per selection change and shared by every neighbor that receives it;
//! extending an attestation chain shares the received chain rather than
//! re-copying its prefix, and the new attestation is signed when first
//! read (on a spare core, if the network has one); and message
//! `wire_size` accounting is arithmetic, never an encode or a signature.
//! Announcements that lose to the standing
//! best route are rejected in O(1) by the incremental decision path
//! ([`crate::rib::ReselectHint`]) without rescanning the candidates.
//!
//! ## Failure semantics (post-E16)
//!
//! The router implements proper session teardown and recovery through
//! the fault layer's [`Agent::on_session`] callback: a session loss
//! flushes both Adj-RIBs for the peer and floods withdraws for every
//! route learned over it; recovery re-announces the full Loc-RIB per
//! export policy. RFC 2439-style route-flap dampening
//! ([`crate::dampening`]) suppresses persistently flapping
//! `(neighbor, prefix)` pairs, and MRAI batching supports a jittered
//! re-arm delay drawn from a router-owned DRBG seeded per AS (the
//! engine hands agents no randomness, so nothing a router draws can
//! depend on the shard count).
//!
//! Documented omissions: no OPEN/KEEPALIVE exchange (session state is
//! driven by the fault layer, not a peer FSM), no iBGP, no aggregation.

use crate::dampening::{DampState, REUSE_TICK};
use crate::decision::CandidateRef;
use crate::messages::BgpUpdate;
use crate::policy::{import_as, may_export_as, PolicyConfig, Role};
use crate::private::{PrivateRequest, PrivateVerifier, PVR_VERDICT_TIMER};
use crate::rib::{PrefixCell, ReselectHint, ReselectOutcome};
use crate::route::{Community, Route};
use crate::sbgp::{Salt, SignQueue, SignedRoute, VerifyCache, SALT_LEN};
use crate::sorted::SortedMap;
use crate::topology::OriginTable;
use crate::types::{Asn, Prefix};
use pvr_crypto::drbg::{CounterStream, HmacDrbg};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_netsim::state::{decode_timeline, encode_timeline};
use pvr_netsim::{Agent, Context, NodeId, SimDuration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A scheduled local action (drives workloads without an extra agent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalEvent {
    /// Start originating `prefix`.
    Announce(Prefix),
    /// Stop originating `prefix`.
    Withdraw(Prefix),
}

pvr_crypto::wire_enum!(LocalEvent { 0 => Announce(prefix), 1 => Withdraw(prefix) });

/// Security mode for a router.
pub enum SecurityMode {
    /// Plain BGP: no signatures.
    Plain,
    /// S-BGP mode: sign own announcements, verify received chains, drop
    /// announcements that fail verification.
    Signed {
        /// This AS's signing identity, shared with the exports it has
        /// made but not yet signed.
        identity: Arc<Identity>,
        /// Public keys of all ASes.
        keys: Arc<KeyStore>,
        /// Router-owned stream the attestation salts draw from, two
        /// salts per compression (`CounterStream`): keyed per AS, so the
        /// salts cannot depend on the shard layout, and checkpointed
        /// with the RIB.
        salts: CounterStream,
    },
}

pvr_obs::metric_struct! {
    /// Per-router counters (inputs to experiment E14's overhead table and
    /// E12's detection columns).
    ///
    /// Declared through [`pvr_obs::metric_struct!`], which also derives
    /// the commutative `add` fold (network-wide totals independent of
    /// router iteration order and shard layout) and the snapshot export
    /// (counters named `pvr_router_<field>_total`) from the same field
    /// list — the struct and its metric series cannot drift apart.
    pub struct RouterStats, prefix = "pvr_router" {
        /// UPDATE messages received.
        pub updates_rx: u64,
        /// UPDATE messages sent.
        pub updates_tx: u64,
        /// Routes accepted into Adj-RIB-In.
        pub routes_accepted: u64,
        /// Routes rejected by import policy (incl. loops).
        pub routes_rejected: u64,
        /// Announcements dropped due to attestation failures.
        pub attestation_failures: u64,
        /// Announcements dropped because the origin AS is not authorized
        /// for the prefix (RPKI-style check, see [`OriginTable`]).
        pub origin_failures: u64,
        /// Attestation-signature checks this router requested (signed
        /// mode with its shard's cache installed; one per attestation
        /// of each received chain).
        pub verify_calls: u64,
        /// How many of those were answered by its shard's
        /// [`VerifyCache`] without running RSA.
        pub verify_cache_hits: u64,
        /// Decision-process runs that changed the best route.
        pub best_changes: u64,
        /// Decision-process runs resolved in O(1) by the incremental path:
        /// the arrival lost to the standing best (or withdrew a non-best
        /// route), so no candidate rescan, no clone, no export ran.
        pub reselect_short_circuits: u64,
        /// Explicit withdraws this router queued for transmission
        /// (counted pre-MRAI-merge: the fan-out of a withdraw storm, not
        /// the post-batching wire count).
        pub withdraws_sent: u64,
        /// Announcements parked by route-flap dampening because the
        /// `(neighbor, prefix)` pair was suppressed on arrival.
        pub dampening_suppressed: u64,
    }
}

impl RouterStats {
    /// A copy with the cache-locality-dependent counter cleared.
    /// `verify_cache_hits` is the one statistic that legitimately
    /// depends on cache scope (caches are per shard, and a per-shard
    /// cache sees fewer reuse opportunities than the one-shard,
    /// network-wide one, so k-shard hits ≤ 1-shard hits); every other
    /// counter — including `verify_calls` — must be identical at every
    /// shard count, which the determinism tests assert on this
    /// projection.
    pub fn shard_invariant(&self) -> RouterStats {
        RouterStats { verify_cache_hits: 0, ..self.clone() }
    }
}

/// Hooks that turn a router into a malicious agent. Used by the
/// `pvr-attack` campaign engine; every flag defaults to honest
/// behaviour.
#[derive(Clone, Debug, Default)]
pub struct Malice {
    /// Ignore export policy: advertise every selected route to every
    /// neighbor regardless of where it was learned — the classic
    /// customer→provider route leak (a Gao–Rexford valley).
    pub leak_all: bool,
}

/// Reserved timer id for the MRAI flush (schedule timers use indices,
/// which can never reach this value).
const MRAI_TIMER: u64 = u64::MAX;

/// Reserved timer id for the dampening reuse-list tick.
const DAMP_TIMER: u64 = u64::MAX - 1;

/// One configured session, with what policy says about the neighbor.
/// The policy is immutable once the router holds it, so the role and
/// region tag are looked up when the session is added and never again.
#[derive(Clone, Copy, Debug)]
struct Neighbor {
    asn: Asn,
    node: NodeId,
    /// `None` for a session policy does not know: nothing is imported
    /// from it and nothing exported to it.
    role: Option<Role>,
    /// Community stamped on every route imported over this session.
    region_tag: Option<Community>,
}

/// The per-prefix RIB index. Cells are boxed: a bucket is then a prefix
/// and a pointer, so the table — which hashbrown keeps at most half
/// full after it grows — stays small and dense, and a lookup touches
/// one bucket line plus the cell's own (a cell is 40 bytes: the
/// layout test in `rib.rs` holds it there).
type Cells = HashMap<Prefix, Box<PrefixCell>>;

/// A BGP speaker for one AS.
pub struct BgpRouter {
    asn: Asn,
    policy: PolicyConfig,
    security: SecurityMode,
    /// Message attribution: the session each simulator node speaks
    /// for, in ascending node order (a binary search away, no hashing).
    /// A node resolves to the latest registration of the latest AS
    /// registered at it.
    sessions_by_node: Vec<(NodeId, Neighbor)>,
    /// Sessions in ascending-ASN order: the order export walks them in,
    /// and a binary search away for everything keyed by neighbor.
    neighbor_list: Vec<Neighbor>,
    /// Scheduled announce/withdraw actions: (delay, event).
    schedule: Vec<(SimDuration, LocalEvent)>,
    /// Prefixes originated at start.
    originate_at_start: Vec<Prefix>,

    /// Adj-RIB-In, Loc-RIB, Adj-RIB-Out and local originations, one
    /// cell per prefix the router knows anything about. Handlers move
    /// the map out of `self` while they work on a cell, so a cell
    /// borrow and `&mut self` can coexist; no method reads this field
    /// while a handler holds the map.
    cells: Cells,
    /// Attestation chains for routes in Adj-RIB-In (signed mode).
    chains_in: BTreeMap<(Asn, Prefix), SignedRoute>,
    /// Minimum route advertisement interval: when set, outgoing updates
    /// are buffered and flushed at most once per interval (RFC 4271
    /// §9.2.1.1, simplified to a router-level timer).
    mrai: Option<SimDuration>,
    /// Buffered updates awaiting the next MRAI tick.
    mrai_buffer: BTreeMap<NodeId, BgpUpdate>,
    /// Whether an MRAI flush timer is currently armed.
    mrai_armed: bool,
    /// Upper bound on the random extra delay added each time the MRAI
    /// timer is armed (RFC 4271's jitter, §9.2.1.1 / §10).
    mrai_jitter: Option<SimDuration>,
    /// Router-owned DRBG the MRAI jitter draws from, seeded per AS so
    /// the draws cannot depend on the shard layout (the engine hands
    /// agents no randomness of its own).
    jitter_rng: Option<HmacDrbg>,
    /// Whether route-flap dampening is on.
    dampening: bool,
    /// Dampening figure-of-merit per `(neighbor, prefix)`.
    damp_states: BTreeMap<(Asn, Prefix), DampState>,
    /// How many `damp_states` entries are suppressed — what arming the
    /// reuse tick asks at the end of every message, kept here so the
    /// answer is not a walk over the map.
    suppressed_pairs: usize,
    /// Latest announcement parked per suppressed `(neighbor, prefix)`,
    /// re-processed when the pair's penalty decays below reuse.
    parked: BTreeMap<(Asn, Prefix), SignedRoute>,
    /// Whether a dampening reuse tick is currently armed.
    damp_timer_armed: bool,
    /// Neighbors whose session is currently torn down; export skips
    /// them until recovery re-announces.
    sessions_down: BTreeSet<Asn>,
    /// Malicious-behaviour switches (campaign engine).
    malice: Malice,
    /// Origin authorizations checked on import when present.
    origin_table: Option<Arc<OriginTable>>,
    /// Attestation-verification memo (signed mode; installed by
    /// `Topology::instantiate_sharded`, one per shard, shared by every
    /// router that shard runs).
    verify_cache: Option<Arc<VerifyCache>>,
    /// Where this router's attestations wait for a helper thread to
    /// sign them (signed mode on spare cores; installed by
    /// `Topology::instantiate`, shared by every router of one network).
    sign_queue: Option<Arc<SignQueue>>,
    /// Shared private-verification service (PVR mode; installed by
    /// `Topology::instantiate` when private verification is enabled).
    /// Best-route changes with ≥ 2 winning-tier candidates enqueue an
    /// SMC verification request; verdicts come back on
    /// [`PVR_VERDICT_TIMER`] after the cost-model latency.
    private_verifier: Option<Arc<PrivateVerifier>>,
    /// Router-local request sequence — with the ASN, the engine-
    /// invariant ordering key for private-verification flushes.
    pvr_seq: u64,
    /// When this router first dropped an announcement for a security
    /// reason (attestation or origin failure) — the campaign engine's
    /// detection-latency measurement.
    first_security_reject: Option<SimTime>,
    /// Reused buffer for the prefixes an UPDATE touched, each with the
    /// route the touch displaced (per-message allocation shaved off
    /// the hot path).
    touched_scratch: Vec<(Prefix, Option<Route>)>,
    /// Reused per-neighbor outgoing-update accumulator (drained by
    /// `flush`, allocation retained across messages).
    pending_scratch: SortedMap<NodeId, BgpUpdate>,
    /// Reused buffer for the holder list `export` rebuilds.
    holders_scratch: Vec<Asn>,
    /// Reused buffer for the neighbors one signed export goes to.
    recipients_scratch: Vec<Neighbor>,
    stats: RouterStats,
    /// Per-router convergence-timeline recorder (RIB churn and verify
    /// traffic per sim-time window); `None` unless observability was
    /// enabled at instantiation. Stamped exclusively with the
    /// simulator's virtual clock (the sim-time-only tracing rule).
    obs_timeline: Option<pvr_obs::TimelineRecorder>,
    /// Ring-buffered sim-time event journal (capacity 0 = disabled).
    journal: pvr_obs::EventJournal,
}

impl BgpRouter {
    /// Creates a router for `asn` with the given policy and security mode.
    pub fn new(asn: Asn, policy: PolicyConfig, security: SecurityMode) -> BgpRouter {
        BgpRouter {
            asn,
            policy,
            security,
            sessions_by_node: Vec::new(),
            neighbor_list: Vec::new(),
            schedule: Vec::new(),
            originate_at_start: Vec::new(),
            cells: Cells::new(),
            chains_in: BTreeMap::new(),
            mrai: None,
            mrai_buffer: BTreeMap::new(),
            mrai_armed: false,
            mrai_jitter: None,
            jitter_rng: None,
            dampening: false,
            damp_states: BTreeMap::new(),
            suppressed_pairs: 0,
            parked: BTreeMap::new(),
            damp_timer_armed: false,
            sessions_down: BTreeSet::new(),
            malice: Malice::default(),
            origin_table: None,
            verify_cache: None,
            sign_queue: None,
            private_verifier: None,
            pvr_seq: 0,
            first_security_reject: None,
            touched_scratch: Vec::new(),
            pending_scratch: SortedMap::new(),
            holders_scratch: Vec::new(),
            recipients_scratch: Vec::new(),
            stats: RouterStats::default(),
            obs_timeline: None,
            journal: pvr_obs::EventJournal::new(0),
        }
    }

    /// Enables the per-router convergence-timeline recorder with
    /// `window`-wide sim-time windows (RIB churn and verify traffic;
    /// merged network-wide by `BgpNetwork::convergence_timeline`).
    pub fn enable_timeline(&mut self, window: SimDuration) {
        if self.obs_timeline.is_none() {
            self.obs_timeline = Some(pvr_obs::TimelineRecorder::new(
                window.as_micros(),
                pvr_obs::timeline::RT_CHANNELS,
            ));
        }
    }

    /// Enables the ring-buffered event journal, keeping the most recent
    /// `capacity` events for forensic JSONL dumps.
    pub fn enable_journal(&mut self, capacity: usize) {
        self.journal = pvr_obs::EventJournal::new(capacity);
    }

    /// The per-router timeline recorder, if enabled.
    pub fn timeline(&self) -> Option<&pvr_obs::TimelineRecorder> {
        self.obs_timeline.as_ref()
    }

    /// The per-router event journal (empty when disabled).
    pub fn journal(&self) -> &pvr_obs::EventJournal {
        &self.journal
    }

    /// Records a best-route change at `now` (timeline + journal).
    fn observe_churn(&mut self, now: SimTime) {
        let t = now.as_micros();
        if let Some(tl) = &mut self.obs_timeline {
            tl.add(t, pvr_obs::timeline::RT_RIB_CHURN, 1);
        }
        self.journal.record(t, "best_change", 1);
    }

    /// Records attestation-verification traffic at `now`. The journal
    /// keeps only the shard-invariant call count: cache hits depend on
    /// cache scope (see [`RouterStats::shard_invariant`]), and leaving
    /// them out keeps the JSONL trace byte-identical across shard counts.
    fn observe_verify(&mut self, now: SimTime, calls: u64, hits: u64) {
        let t = now.as_micros();
        if let Some(tl) = &mut self.obs_timeline {
            tl.add(t, pvr_obs::timeline::RT_VERIFY_CALLS, calls);
            tl.add(t, pvr_obs::timeline::RT_VERIFY_HITS, hits);
        }
        self.journal.record(t, "verify", calls);
    }

    /// Journals a security rejection (attestation/origin) at `now`.
    fn observe_reject(&mut self, now: SimTime, kind: &'static str) {
        self.journal.record(now.as_micros(), kind, 1);
    }

    /// Records an explicit withdraw queued for transmission at `now`
    /// (timeline churn channel + counter).
    fn observe_withdraw(&mut self, now: SimTime) {
        self.stats.withdraws_sent += 1;
        if let Some(tl) = &mut self.obs_timeline {
            tl.add(now.as_micros(), pvr_obs::timeline::RT_WITHDRAWS, 1);
        }
    }

    /// Switches this router to the given malicious behaviour.
    pub fn set_malice(&mut self, malice: Malice) {
        self.malice = malice;
    }

    /// True when any malicious-behaviour switch is set. Checkpointing
    /// refuses such routers: malice is installed imperatively by the
    /// campaign engine, so a restore from topology + options alone
    /// could not reconstruct it.
    pub fn malice_active(&self) -> bool {
        self.malice.leak_all
    }

    /// Installs an origin-authorization table; subsequently received
    /// announcements whose origin is unauthorized are dropped.
    pub fn set_origin_table(&mut self, table: Arc<OriginTable>) {
        self.origin_table = Some(table);
    }

    /// The installed origin table, if any (checkpoints embed it so a
    /// restored network keeps rejecting unauthorized origins).
    pub(crate) fn origin_table_ref(&self) -> Option<&Arc<OriginTable>> {
        self.origin_table.as_ref()
    }

    /// Installs the shared attestation-verification cache. Verdicts
    /// are unchanged; repeated chain verifies skip the RSA math.
    pub fn set_verify_cache(&mut self, cache: Arc<VerifyCache>) {
        self.verify_cache = Some(cache);
    }

    /// Installs the network's sign-ahead queue: attestations this
    /// router makes are offered to its helper threads.
    pub(crate) fn set_sign_queue(&mut self, queue: Arc<SignQueue>) {
        self.sign_queue = Some(queue);
    }

    /// Installs the shared private-verification service; subsequent
    /// best-route changes enqueue SMC verification requests.
    pub fn set_private_verifier(&mut self, verifier: Arc<PrivateVerifier>) {
        self.private_verifier = Some(verifier);
    }

    /// The signing identity (signed mode only).
    pub fn identity(&self) -> Option<&Identity> {
        match &self.security {
            SecurityMode::Signed { identity, .. } => Some(identity),
            SecurityMode::Plain => None,
        }
    }

    /// When this router first dropped an announcement for a security
    /// reason, if it ever did.
    pub fn first_security_reject(&self) -> Option<SimTime> {
        self.first_security_reject
    }

    /// Enables MRAI batching: updates are buffered and flushed at most
    /// once per `interval`.
    pub fn set_mrai(&mut self, interval: SimDuration) {
        self.mrai = Some(interval);
    }

    /// Adds a random extra delay in `[0, jitter]` each time the MRAI
    /// timer is armed, drawn from `rng` (a router-owned DRBG; see the
    /// field docs for why it must not be the engine's).
    pub fn set_mrai_jitter(&mut self, jitter: SimDuration, rng: HmacDrbg) {
        self.mrai_jitter = Some(jitter);
        self.jitter_rng = Some(rng);
    }

    /// Enables RFC 2439-style route-flap dampening (the thresholds are
    /// the constants in [`crate::dampening`]).
    pub fn enable_dampening(&mut self) {
        self.dampening = true;
    }

    /// Dampening state for `(neighbor, prefix)`, if any (test/metric
    /// introspection).
    pub fn damp_state(&self, neighbor: Asn, prefix: Prefix) -> Option<&DampState> {
        self.damp_states.get(&(neighbor, prefix))
    }

    /// Registers a neighbor and the simulator node it lives at.
    pub fn add_neighbor(&mut self, asn: Asn, node: NodeId) {
        let neighbor = Neighbor {
            asn,
            node,
            role: self.policy.role(asn),
            region_tag: self.policy.region_tag(asn),
        };
        match self.neighbor_index(asn) {
            Ok(i) => self.neighbor_list[i] = neighbor,
            Err(i) => self.neighbor_list.insert(i, neighbor),
        }
        // Nodes registered for `asn` earlier now speak for this session.
        for (_, session) in &mut self.sessions_by_node {
            if session.asn == asn {
                *session = neighbor;
            }
        }
        match self.sessions_by_node.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(i) => self.sessions_by_node[i].1 = neighbor,
            Err(i) => self.sessions_by_node.insert(i, (node, neighbor)),
        }
    }

    /// The session a message from simulator node `node` arrives on.
    fn session_at(&self, node: NodeId) -> Option<Neighbor> {
        let i = self.sessions_by_node.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.sessions_by_node[i].1)
    }

    fn neighbor_index(&self, asn: Asn) -> Result<usize, usize> {
        self.neighbor_list.binary_search_by_key(&asn, |n| n.asn)
    }

    /// The configured session with `asn`, if there is one.
    fn neighbor(&self, asn: Asn) -> Option<Neighbor> {
        self.neighbor_index(asn).ok().map(|i| self.neighbor_list[i])
    }

    /// Originates `prefix` when the simulation starts.
    pub fn originate(&mut self, prefix: Prefix) {
        self.originate_at_start.push(prefix);
    }

    /// Schedules a local announce/withdraw after `delay`.
    pub fn schedule_event(&mut self, delay: SimDuration, event: LocalEvent) {
        self.schedule.push((delay, event));
    }

    /// This router's AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The current best route for `prefix`, if any, borrowed from the
    /// Adj-RIB-In entry or local origination that won.
    pub fn best_route(&self, prefix: Prefix) -> Option<CandidateRef<'_>> {
        self.cells.get(&prefix)?.best()
    }

    /// What this router last advertised to `neighbor` for `prefix`.
    pub fn advertised_to(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.cells.get(&prefix)?.advertised_to(neighbor)
    }

    /// The post-import route currently held from `neighbor` for `prefix`.
    pub fn route_from(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.cells.get(&prefix)?.candidates.get(neighbor)
    }

    /// Every (prefix, route) pair currently held from `neighbor`, in
    /// prefix order. The raw material for the `pvr-attack` gossip audit:
    /// a neighbor reveals only what the suspect itself announced to it.
    pub fn routes_from(&self, neighbor: Asn) -> Vec<(Prefix, &Route)> {
        let mut out: Vec<(Prefix, &Route)> = self
            .cells
            .iter()
            .filter_map(|(&p, cell)| cell.candidates.get(neighbor).map(|r| (p, r)))
            .collect();
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// Read access to the import policy.
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// The attested announcement (with its full chain) currently held
    /// from `neighbor` for `prefix` — what a PVR committer feeds into a
    /// round, and what a provider presents as `IgnoredInput` evidence.
    pub fn received_chain(&self, neighbor: Asn, prefix: Prefix) -> Option<&SignedRoute> {
        self.chains_in.get(&(neighbor, prefix))
    }

    /// All prefixes currently selected in the Loc-RIB, in prefix order.
    pub fn selected_prefixes(&self) -> Vec<Prefix> {
        self.selections().into_iter().map(|(prefix, _)| prefix).collect()
    }

    /// The Loc-RIB: every selected route with its prefix, in prefix
    /// order — [`best_route`](Self::best_route) for each of
    /// [`selected_prefixes`](Self::selected_prefixes), read in one pass.
    pub(crate) fn selections(&self) -> Vec<(Prefix, CandidateRef<'_>)> {
        let mut out: Vec<(Prefix, CandidateRef<'_>)> =
            self.cells.iter().filter_map(|(&prefix, cell)| Some((prefix, cell.best()?))).collect();
        out.sort_unstable_by_key(|&(prefix, _)| prefix);
        out
    }

    /// `(Adj-RIB-In entries, Loc-RIB selections)` — the scale
    /// experiment E14's RIB-size accounting.
    pub fn rib_entry_counts(&self) -> (usize, usize) {
        self.cells.values().fold((0, 0), |(adj_in, selected), cell| {
            (adj_in + cell.candidates.len(), selected + usize::from(cell.has_best()))
        })
    }

    /// Checks what must hold of the router between events, and says
    /// which prefix breaks what: no vacant cell; the selection names a
    /// present entry and equals a from-scratch decision; no empty
    /// outbound part; every route under its own prefix; the advertised
    /// route is the propagated selection, held by ascending configured
    /// neighbors on live sessions; nothing held or parked from a
    /// torn-down session; in signed mode one chain per candidate and no
    /// other, in plain mode no chains; the suppressed-pair count matches
    /// the dampening states. Tests call this at quiescent end states;
    /// restore runs the same RIB check on every router it loads.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_rib(&self.cells, &self.chains_in, &self.parked, &self.sessions_down)
            .map_err(|(prefix, what)| format!("AS{} {prefix}: {what}", self.asn.0))?;
        let suppressed = self.damp_states.values().filter(|state| state.suppressed).count();
        if self.suppressed_pairs != suppressed {
            return Err(format!(
                "AS{}: suppressed-pair count is {}, {suppressed} pairs are suppressed",
                self.asn.0, self.suppressed_pairs
            ));
        }
        Ok(())
    }

    /// The RIB half of [`check_invariants`](Self::check_invariants) over
    /// the parts given: this router's own, or the ones
    /// [`load_dynamic`](Self::load_dynamic) decoded, before it installs
    /// any.
    fn check_rib(
        &self,
        cells: &Cells,
        chains_in: &BTreeMap<(Asn, Prefix), SignedRoute>,
        parked: &BTreeMap<(Asn, Prefix), SignedRoute>,
        sessions_down: &BTreeSet<Asn>,
    ) -> Result<(), (Prefix, &'static str)> {
        let signed = matches!(self.security, SecurityMode::Signed { .. });
        for (&prefix, cell) in cells {
            let fail = |what| Err((prefix, what));
            if cell.is_vacant() {
                return fail("vacant cell retained");
            }
            cell.check().map_err(|what| (prefix, what))?;
            if cell.candidates.values().chain(cell.local()).any(|route| route.prefix != prefix) {
                return fail("route filed under another prefix");
            }
            if let Some(out) = cell.out() {
                let propagated = cell.best().map(|cand| cand.route.propagated_by(self.asn));
                if propagated.as_ref() != Some(out) {
                    return fail("advertised route is not the propagated selection");
                }
            }
            if !cell.out_to().windows(2).all(|pair| pair[0] < pair[1]) {
                return fail("holder list not strictly ascending");
            }
            for &holder in cell.out_to() {
                if self.neighbor_index(holder).is_err() {
                    return fail("holder is not a configured neighbor");
                }
                if sessions_down.contains(&holder) {
                    return fail("holder's session is down");
                }
            }
            for neighbor in cell.candidates.keys() {
                if sessions_down.contains(&neighbor) {
                    return fail("candidate from a torn-down session");
                }
                if signed && !chains_in.contains_key(&(neighbor, prefix)) {
                    return fail("candidate without an attestation chain");
                }
            }
        }
        for &(neighbor, prefix) in chains_in.keys() {
            if !signed {
                return Err((prefix, "attestation chain in plain mode"));
            }
            if cells.get(&prefix).and_then(|cell| cell.candidates.get(neighbor)).is_none() {
                return Err((prefix, "attestation chain without a candidate"));
            }
        }
        if let Some(&(_, prefix)) = parked.keys().find(|(n, _)| sessions_down.contains(n)) {
            return Err((prefix, "parked route from a torn-down session"));
        }
        Ok(())
    }

    /// Runs the decision process on `cell`; on change, advertises or
    /// withdraws toward every neighbor per export policy. Outgoing
    /// updates are merged into `pending` (one UPDATE per neighbor).
    ///
    /// `hint` feeds the incremental decision path: an arrival that
    /// loses to the standing best returns after one comparison, with
    /// no candidate rescan and no export loop. `displaced` is what the
    /// entry `hint` names held at the last selection (see
    /// [`PrefixCell::reselect`]).
    ///
    /// Returns whether the cell is left vacant, for the caller — which
    /// holds the map the cell lives in — to drop it.
    #[must_use]
    fn reselect_and_export(
        &mut self,
        prefix: Prefix,
        cell: &mut PrefixCell,
        hint: ReselectHint,
        displaced: Option<Route>,
        now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) -> bool {
        match cell.reselect(hint, displaced.as_ref()) {
            ReselectOutcome::UnchangedShortCircuit => self.stats.reselect_short_circuits += 1,
            ReselectOutcome::UnchangedScanned => {}
            ReselectOutcome::Changed => {
                self.stats.best_changes += 1;
                self.observe_churn(now);
                self.request_private_verification(prefix, cell);
                self.export(prefix, cell, now, pending);
            }
        }
        cell.is_vacant()
    }

    /// [`reselect_and_export`](Self::reselect_and_export) for a prefix
    /// whose cell is not in hand; a prefix without a cell has nothing
    /// to select or withdraw.
    fn reselect_prefix(
        &mut self,
        cells: &mut Cells,
        prefix: Prefix,
        hint: ReselectHint,
        displaced: Option<Route>,
        now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        let Some(cell) = cells.get_mut(&prefix) else { return };
        if self.reselect_and_export(prefix, cell, hint, displaced, now, pending) {
            cells.remove(&prefix);
        }
    }

    /// Enqueues a private-verification request for the fresh selection
    /// of `prefix`, when the mode is on and there is something to
    /// verify: a *learned* best route with at least one competing
    /// candidate in the winning LOCAL_PREF tier. Each tier candidate's
    /// path length is one party's secret input; the claimed length is
    /// the selected route's. An honest selection always passes both
    /// circuits (the claim *is* the tier minimum, so every "claim ≤
    /// mine" vote is true).
    fn request_private_verification(&mut self, prefix: Prefix, cell: &PrefixCell) {
        let Some(verifier) = &self.private_verifier else { return };
        let Some(best) = cell.best() else { return };
        if best.learned_from.is_none() {
            return; // locally originated: no neighbors to compare
        }
        let pref = best.route.local_pref;
        let claimed_len = best.route.path_len() as u64;
        let candidate_lens: Vec<u64> = cell
            .candidates
            .values()
            .filter(|r| r.local_pref == pref)
            .map(|r| r.path_len() as u64)
            .collect();
        if candidate_lens.len() < 2 {
            return; // a lone candidate leaks nothing by comparison
        }
        let seq = self.pvr_seq;
        self.pvr_seq += 1;
        verifier.enqueue(PrivateRequest {
            asn: self.asn,
            seq,
            prefix,
            claimed_len,
            candidate_lens,
        });
    }

    /// Whether `cand` may be sent to `to`: export policy, or — for a
    /// leaking router — everyone but the neighbor the route came from
    /// (re-exporting to the source would only be loop-rejected there).
    /// `source` is `cand.learned_from` with that neighbor's role.
    fn may_send(
        &self,
        cand: CandidateRef<'_>,
        source: Option<(Asn, Option<Role>)>,
        to: &Neighbor,
    ) -> bool {
        if self.malice.leak_all {
            cand.learned_from != Some(to.asn)
        } else {
            may_export_as(cand.route, source, (to.asn, to.role))
        }
    }

    /// `cand.learned_from` paired with that neighbor's role, the form
    /// [`may_send`](Self::may_send) takes it in.
    fn source_of(&self, cand: CandidateRef<'_>) -> Option<(Asn, Option<Role>)> {
        cand.learned_from.map(|n| (n, self.neighbor(n).and_then(|nb| nb.role)))
    }

    /// The per-neighbor half of [`reselect_and_export`]: advertises or
    /// withdraws the cell's fresh selection toward every live neighbor.
    /// In signed mode the neighbors it is announced to get one batch,
    /// signed once ([`announce_signed`](Self::announce_signed)).
    ///
    /// One merge of the session list against the cell's holder list,
    /// both in ASN order: a neighbor policy admits is announced to
    /// unless it already holds this very route, a holder policy no
    /// longer admits is withdrawn from. Afterwards the holders are
    /// exactly the admitted live neighbors and all hold the same route
    /// — which is why the cell stores it once.
    ///
    /// [`reselect_and_export`]: BgpRouter::reselect_and_export
    fn export(
        &mut self,
        prefix: Prefix,
        cell: &mut PrefixCell,
        now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        debug_assert_eq!(
            cell.out().is_some(),
            !cell.out_to().is_empty(),
            "one route per holder set"
        );
        let best = cell.best();
        // The propagated route is identical toward every neighbor
        // (LOCAL_PREF/MED reset, path prepended): build it once, for
        // the first neighbor admitted to hear it. Most cells have none
        // (a stub exports nothing it learned), and then it is never built.
        let mut built: Option<(Route, bool)> = None;
        let source = best.and_then(|cand| self.source_of(cand));
        let signed = matches!(self.security, SecurityMode::Signed { .. });
        let mut holders = std::mem::take(&mut self.holders_scratch);
        let mut recipients = std::mem::take(&mut self.recipients_scratch);
        let mut held_by = cell.out_to().iter().copied().peekable();
        for i in 0..self.neighbor_list.len() {
            // Indexed access keeps the borrow local so counters and
            // recorders can be touched inside the loop.
            let neighbor = self.neighbor_list[i];
            let held = held_by.next_if_eq(&neighbor.asn).is_some();
            // No updates toward a torn-down session; recovery
            // re-announces the whole Loc-RIB instead.
            if self.sessions_down.contains(&neighbor.asn) {
                continue;
            }
            match best.filter(|&cand| self.may_send(cand, source, &neighbor)) {
                Some(cand) => {
                    holders.push(neighbor.asn);
                    let (out_route, unchanged) = built.get_or_insert_with(|| {
                        let out_route = cand.route.propagated_by(self.asn);
                        let unchanged = cell.out() == Some(&out_route);
                        (out_route, unchanged)
                    });
                    // Skip if identical to what the neighbor already has.
                    if held && *unchanged {
                        continue;
                    }
                    if signed {
                        recipients.push(neighbor);
                    } else {
                        let unsigned = SignedRoute::unsigned(out_route.clone());
                        pending.get_or_default(neighbor.node).announce(unsigned);
                    }
                }
                None => {
                    if held {
                        pending.get_or_default(neighbor.node).withdraw(prefix);
                        self.observe_withdraw(now);
                    }
                }
            }
        }
        debug_assert!(held_by.next().is_none(), "an Adj-RIB-Out holder is not a neighbor");
        if let (Some(cand), Some((out_route, _))) = (best, &built) {
            self.announce_signed(cand, out_route, &recipients, pending);
        }
        cell.set_out(built.map(|(out_route, _)| out_route), &holders);
        holders.clear();
        self.holders_scratch = holders;
        recipients.clear();
        self.recipients_scratch = recipients;
    }

    /// Announces `out_route` to `to` (ascending ASN order; nothing when
    /// empty) as one export batch, extending the chain `cand` arrived
    /// with when there is one. The batch draws its salts from the
    /// router's stream and is signed when first read — by a receiver, or
    /// earlier by a helper thread of the sign queue. Signed mode only.
    fn announce_signed(
        &mut self,
        cand: CandidateRef<'_>,
        out_route: &Route,
        to: &[Neighbor],
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        if to.is_empty() {
            return;
        }
        let SecurityMode::Signed { identity, salts, .. } = &mut self.security else {
            unreachable!("a signed export in plain mode")
        };
        let received = cand.learned_from.map(|from| {
            self.chains_in
                .get(&(from, out_route.prefix))
                .expect("signed mode: chain must exist for learned route")
        });
        let mut leaf_salts: Vec<Salt> = vec![[0; SALT_LEN]; to.len()];
        salts.fill(leaf_salts.as_flattened_mut());
        let targets: Vec<Asn> = to.iter().map(|neighbor| neighbor.asn).collect();
        let routes = SignedRoute::export(received, identity, out_route, &targets, &leaf_salts);
        if let Some(queue) = &self.sign_queue {
            queue.push(routes[0].chain());
        }
        for (neighbor, signed) in to.iter().zip(routes) {
            pending.get_or_default(neighbor.node).announce(signed);
        }
    }

    /// Processes one announcement from `from` at simulated time `now`;
    /// if the prefix's Adj-RIB-In changed, returns its cell and the
    /// route the change displaced.
    fn process_announce<'c>(
        &mut self,
        cells: &'c mut Cells,
        from: &Neighbor,
        sr: SignedRoute,
        now: SimTime,
    ) -> Option<(&'c mut PrefixCell, Option<Route>)> {
        // Attestation check first (signed mode only).
        if let SecurityMode::Signed { keys, .. } = &self.security {
            let cache = self.verify_cache.as_deref();
            let before = cache.map(|c| (c.calls(), c.hits()));
            let verdict = sr.verify_cached(self.asn, keys, cache);
            if let (Some(cache), Some((calls, hits))) = (cache, before) {
                // Only one thread ever dispatches into a given cache's
                // routers (caches are per shard), so
                // the deltas are exactly this router's share of the
                // shared counters — no cross-shard double-counting.
                let delta_calls = cache.calls() - calls;
                let delta_hits = cache.hits() - hits;
                self.stats.verify_calls += delta_calls;
                self.stats.verify_cache_hits += delta_hits;
                if delta_calls > 0 {
                    self.observe_verify(now, delta_calls, delta_hits);
                }
            }
            if verdict.is_err() {
                self.stats.attestation_failures += 1;
                self.first_security_reject.get_or_insert(now);
                self.observe_reject(now, "attestation_reject");
                return None;
            }
            // The claimed first AS must be the actual sender.
            if sr.route.path.first_as() != Some(from.asn) {
                self.stats.attestation_failures += 1;
                self.first_security_reject.get_or_insert(now);
                self.observe_reject(now, "attestation_reject");
                return None;
            }
        }
        // Origin authorization (RPKI-style) when a table is installed.
        if let Some(table) = &self.origin_table {
            if let Some(origin) = sr.route.path.origin_as() {
                if !table.permits(sr.route.prefix, origin) {
                    self.stats.origin_failures += 1;
                    self.first_security_reject.get_or_insert(now);
                    self.observe_reject(now, "origin_reject");
                    return None;
                }
            }
        }
        let prefix = sr.route.prefix;
        match import_as(self.asn, from.role, from.region_tag, sr.route.clone()) {
            Some(imported) => {
                self.stats.routes_accepted += 1;
                let cell: &mut PrefixCell = cells.entry(prefix).or_default();
                let displaced = cell.candidates.insert(from.asn, imported);
                // Chains only matter when this router re-signs
                // announcements (or feeds a PVR round); plain mode
                // skips the bookkeeping entirely.
                if matches!(self.security, SecurityMode::Signed { .. }) {
                    self.chains_in.insert((from.asn, prefix), sr);
                }
                Some((cell, displaced))
            }
            None => {
                self.stats.routes_rejected += 1;
                // An unimportable announcement still implicitly withdraws
                // any previous route from this neighbor.
                let cell = cells.get_mut(&prefix)?;
                let displaced = cell.candidates.remove(from.asn)?;
                self.chains_in.remove(&(from.asn, prefix));
                Some((cell, Some(displaced)))
            }
        }
    }

    /// Sends (or MRAI-buffers) the accumulated per-neighbor updates in
    /// node order, leaving the drained scratch map's allocation behind
    /// for the next message.
    fn flush(&mut self, ctx: &mut Context<BgpUpdate>, pending: &mut SortedMap<NodeId, BgpUpdate>) {
        match self.mrai {
            None => {
                for (node, update) in pending.drain() {
                    if !update.is_empty() {
                        self.stats.updates_tx += 1;
                        ctx.send(node, update);
                    }
                }
            }
            Some(interval) => {
                let mut buffered_any = false;
                for (node, update) in pending.drain() {
                    if update.is_empty() {
                        continue;
                    }
                    self.mrai_buffer.entry(node).or_default().merge(update);
                    buffered_any = true;
                }
                if buffered_any && !self.mrai_armed {
                    self.mrai_armed = true;
                    let delay = interval + self.mrai_jitter_delay();
                    ctx.set_timer(delay, MRAI_TIMER);
                }
            }
        }
    }

    /// Sends everything in the MRAI buffer.
    fn flush_mrai_buffer(&mut self, ctx: &mut Context<BgpUpdate>) {
        self.mrai_armed = false;
        for (node, update) in std::mem::take(&mut self.mrai_buffer) {
            if !update.is_empty() {
                self.stats.updates_tx += 1;
                ctx.send(node, update);
            }
        }
    }

    /// The extra delay to add when arming the MRAI timer: a fresh draw
    /// in `[0, jitter]` from the router-owned DRBG, or zero when jitter
    /// is not configured.
    fn mrai_jitter_delay(&mut self) -> SimDuration {
        match (&mut self.jitter_rng, self.mrai_jitter) {
            (Some(rng), Some(jitter)) if jitter.as_micros() > 0 => {
                SimDuration::from_micros(rng.below(jitter.as_micros() + 1))
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Records one flap of `(from, prefix)` against the dampening state
    /// (no-op with dampening off).
    fn penalize(&mut self, from: Asn, prefix: Prefix, now: SimTime) {
        if !self.dampening {
            return;
        }
        let state = self.damp_states.entry((from, prefix)).or_insert_with(|| DampState::new(now));
        let was_suppressed = state.suppressed;
        state.penalize(now);
        self.suppressed_pairs += usize::from(state.suppressed && !was_suppressed);
    }

    /// Session toward `peer` went down: discard anything buffered for
    /// it, forget what we advertised to it (its view of us is gone),
    /// flush every route learned over it, and flood withdraws to the
    /// surviving neighbors wherever that changes a selection.
    fn session_down(
        &mut self,
        peer: Neighbor,
        now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        let Neighbor { asn: peer, node, .. } = peer;
        if !self.sessions_down.insert(peer) {
            return; // already down
        }
        self.mrai_buffer.remove(&node);
        let mut cells = std::mem::take(&mut self.cells);
        // One pass drops the peer from every holder list and every
        // candidate set; the cells that lost a candidate are then
        // settled in prefix order, which fixes the order of the
        // withdraws this emits.
        let mut lost: Vec<(Prefix, &mut PrefixCell, Route)> = Vec::new();
        for (&prefix, cell) in cells.iter_mut() {
            cell.remove_holder(peer);
            if let Some(displaced) = cell.candidates.remove(peer) {
                lost.push((prefix, cell, displaced));
            }
        }
        lost.sort_unstable_by_key(|&(prefix, ..)| prefix);
        let mut vacated = Vec::new();
        let hint = ReselectHint::Neighbor(peer);
        for (prefix, cell, displaced) in lost {
            self.chains_in.remove(&(peer, prefix));
            self.parked.remove(&(peer, prefix));
            // A session loss withdraws the route as far as dampening is
            // concerned (RFC 2439 counts it as a flap).
            self.penalize(peer, prefix, now);
            if self.reselect_and_export(prefix, cell, hint, Some(displaced), now, pending) {
                vacated.push(prefix);
            }
        }
        for prefix in vacated {
            cells.remove(&prefix);
        }
        self.cells = cells;
    }

    /// Session toward `peer` recovered: re-announce the full Loc-RIB
    /// per export policy (the peer was dropped from every holder list
    /// on the way down, so everything exportable goes out again).
    fn session_up(&mut self, peer: Neighbor, pending: &mut SortedMap<NodeId, BgpUpdate>) {
        if !self.sessions_down.remove(&peer.asn) {
            return; // was not down (e.g. plan started with LinkUp)
        }
        let mut cells = std::mem::take(&mut self.cells);
        let mut selected: Vec<(Prefix, &mut PrefixCell)> = cells
            .iter_mut()
            .filter(|(_, cell)| cell.has_best())
            .map(|(&prefix, cell)| (prefix, &mut **cell))
            .collect();
        selected.sort_unstable_by_key(|&(prefix, _)| prefix);
        for (_, cell) in selected {
            let cand = cell.best().expect("filtered on a selection");
            if !self.may_send(cand, self.source_of(cand), &peer) {
                continue;
            }
            if cell.advertised_to(peer.asn).is_some() {
                continue;
            }
            // Every holder has the propagated form of the current
            // selection, so the peer joins them with that same route.
            let out_route =
                cell.out().cloned().unwrap_or_else(|| cand.route.propagated_by(self.asn));
            debug_assert_eq!(out_route, cand.route.propagated_by(self.asn));
            if matches!(self.security, SecurityMode::Signed { .. }) {
                self.announce_signed(cand, &out_route, &[peer], pending);
            } else {
                pending
                    .get_or_default(peer.node)
                    .announce(SignedRoute::unsigned(out_route.clone()));
            }
            cell.add_holder(peer.asn, out_route);
        }
        self.cells = cells;
    }

    /// Dampening reuse tick: decay every tracked penalty, release pairs
    /// that fell below the reuse threshold (re-processing their parked
    /// announcement), drop fully decayed state, and re-arm while any
    /// pair stays suppressed.
    fn damp_tick(&mut self, ctx: &mut Context<BgpUpdate>) {
        self.damp_timer_armed = false;
        if !self.dampening {
            return;
        }
        let now = ctx.now();
        let mut released = Vec::new();
        let mut expired = Vec::new();
        for (&key, state) in self.damp_states.iter_mut() {
            let was_suppressed = state.suppressed;
            let still_suppressed = state.refresh(now);
            if was_suppressed && !still_suppressed {
                released.push(key);
                self.suppressed_pairs -= 1;
            }
            if !still_suppressed && state.penalty == 0 {
                expired.push(key);
            }
        }
        for key in expired {
            self.damp_states.remove(&key);
        }
        let mut pending = std::mem::take(&mut self.pending_scratch);
        let mut cells = std::mem::take(&mut self.cells);
        for (from, prefix) in released {
            let Some(sr) = self.parked.remove(&(from, prefix)) else { continue };
            let Some(neighbor) = self.neighbor(from) else { continue };
            let Some((cell, displaced)) = self.process_announce(&mut cells, &neighbor, sr, now)
            else {
                continue;
            };
            let hint = ReselectHint::Neighbor(from);
            if self.reselect_and_export(prefix, cell, hint, displaced, now, &mut pending) {
                cells.remove(&prefix);
            }
        }
        self.cells = cells;
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
        self.arm_damp_timer_if_needed(ctx);
    }

    /// Arms the dampening reuse tick when any pair is suppressed and no
    /// tick is already pending (keeps the simulation quiescent once all
    /// penalties decay away).
    fn arm_damp_timer_if_needed(&mut self, ctx: &mut Context<BgpUpdate>) {
        if !self.dampening || self.damp_timer_armed {
            return;
        }
        if self.suppressed_pairs > 0 {
            self.damp_timer_armed = true;
            ctx.set_timer(REUSE_TICK, DAMP_TIMER);
        }
    }

    /// Serializes every field the event loop mutates — RIBs, chains,
    /// the salt stream (signed mode), MRAI buffer, dampening state, session set, counters, recorders —
    /// in a fixed deterministic order. Static configuration (policy,
    /// keys, neighbors, schedule) is *not* written: restore rebuilds it
    /// from the topology and overlays this dynamic state on top. The RIB
    /// goes first, one record per prefix cell in prefix order.
    pub(crate) fn save_dynamic(&self, buf: &mut Vec<u8>) {
        let mut cells: Vec<(Prefix, &PrefixCell)> =
            self.cells.iter().map(|(&prefix, cell)| (prefix, &**cell)).collect();
        cells.sort_unstable_by_key(|&(prefix, _)| prefix);
        (cells.len() as u32).encode(buf);
        for (prefix, cell) in cells {
            cell.encode_record(prefix, buf);
        }
        (self.chains_in.len() as u32).encode(buf);
        for (&(n, _), sr) in &self.chains_in {
            n.encode(buf);
            sr.encode(buf);
        }
        if let SecurityMode::Signed { salts, .. } = &self.security {
            salts.encode(buf);
        }
        self.mrai_buffer.encode(buf);
        self.mrai_armed.encode(buf);
        self.jitter_rng.encode(buf);
        self.damp_states.encode(buf);
        (self.parked.len() as u32).encode(buf);
        for (&(n, _), sr) in &self.parked {
            n.encode(buf);
            sr.encode(buf);
        }
        self.damp_timer_armed.encode(buf);
        self.sessions_down.encode(buf);
        self.pvr_seq.encode(buf);
        self.first_security_reject.encode(buf);
        // Counters by name, so a build whose stats struct drifted
        // rejects the checkpoint instead of misattributing counts.
        let fields = self.stats.fields();
        (fields.len() as u32).encode(buf);
        for (name, value) in fields {
            name.to_string().encode(buf);
            value.encode(buf);
        }
        encode_timeline(self.obs_timeline.as_ref(), buf);
        self.journal.capacity().encode(buf);
        self.journal.evicted().encode(buf);
        (self.journal.len() as u32).encode(buf);
        for e in self.journal.entries() {
            e.t_us.encode(buf);
            e.kind.to_string().encode(buf);
            e.value.encode(buf);
        }
    }

    /// Decodes and applies the counterpart of
    /// [`save_dynamic`](Self::save_dynamic). Everything is decoded, and
    /// the RIB judged by [`check_rib`](Self::check_rib) — the check
    /// `check_invariants` runs — before any field is touched, so a
    /// corrupt blob, or one holding a RIB this router could not be
    /// holding, leaves the router exactly as built.
    pub(crate) fn load_dynamic(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        // A `(neighbor, route)` list keyed the way the router holds it.
        let by_prefix = |r: &mut Reader<'_>| -> Result<BTreeMap<_, _>, WireError> {
            let pairs = Vec::<(Asn, SignedRoute)>::decode(r)?;
            Ok(pairs.into_iter().map(|(n, sr)| ((n, sr.route.prefix), sr)).collect())
        };
        let mut cells = Cells::new();
        let mut last = None;
        for _ in 0..u32::decode(r)? {
            let (prefix, cell) = PrefixCell::decode_record(r, self.asn)?;
            if last >= Some(prefix) {
                return Err(WireError::Invalid("cells not in ascending prefix order"));
            }
            last = Some(prefix);
            cells.insert(prefix, Box::new(cell));
        }
        let chains_in = by_prefix(r)?;
        let salts = match self.security {
            SecurityMode::Signed { .. } => Some(CounterStream::decode(r)?),
            SecurityMode::Plain => None,
        };
        let mrai_buffer = BTreeMap::<NodeId, BgpUpdate>::decode(r)?;
        if !mrai_buffer.keys().all(|&node| self.session_at(node).is_some()) {
            return Err(WireError::Invalid("MRAI buffer entry for a non-neighbor node"));
        }
        let mrai_armed = bool::decode(r)?;
        let jitter_rng = Option::<HmacDrbg>::decode(r)?;
        let damp_states = BTreeMap::<(Asn, Prefix), DampState>::decode(r)?;
        let parked = by_prefix(r)?;
        let damp_timer_armed = bool::decode(r)?;
        let sessions_down = BTreeSet::<Asn>::decode(r)?;
        if !sessions_down.iter().all(|&n| self.neighbor_index(n).is_ok()) {
            return Err(WireError::Invalid("torn-down session with a non-neighbor"));
        }
        let pvr_seq = u64::decode(r)?;
        let first_security_reject = Option::<SimTime>::decode(r)?;
        let stat_fields = Vec::<(String, u64)>::decode(r)?;
        let stats = RouterStats::from_fields(stat_fields.iter().map(|(n, v)| (n.as_str(), *v)))
            .ok_or(WireError::Invalid("router stats field list does not match this build"))?;
        let obs_timeline = decode_timeline(r)?;
        if obs_timeline.as_ref().is_some_and(|tl| tl.channels() != pvr_obs::timeline::RT_CHANNELS) {
            return Err(WireError::Invalid("router timeline channel count"));
        }
        let journal_capacity = usize::decode(r)?;
        let journal_evicted = u64::decode(r)?;
        let mut journal_entries = Vec::new();
        for (t_us, kind_owned, value) in Vec::<(u64, String, u64)>::decode(r)? {
            // The journal stores interned `&'static str` labels;
            // re-intern against the table of every label the router
            // ever records.
            let kind = JOURNAL_KINDS
                .iter()
                .find(|k| **k == kind_owned)
                .copied()
                .ok_or(WireError::Invalid("unknown journal event kind"))?;
            journal_entries.push(pvr_obs::JournalEntry { t_us, kind, value });
        }
        self.check_rib(&cells, &chains_in, &parked, &sessions_down)
            .map_err(|(_, what)| WireError::Invalid(what))?;

        self.cells = cells;
        self.chains_in = chains_in;
        if let (SecurityMode::Signed { salts: own, .. }, Some(saved)) = (&mut self.security, salts)
        {
            *own = saved;
        }
        self.mrai_buffer = mrai_buffer;
        self.mrai_armed = mrai_armed;
        self.jitter_rng = jitter_rng;
        self.suppressed_pairs = damp_states.values().filter(|state| state.suppressed).count();
        self.damp_states = damp_states;
        self.parked = parked;
        self.damp_timer_armed = damp_timer_armed;
        self.sessions_down = sessions_down;
        self.pvr_seq = pvr_seq;
        self.first_security_reject = first_security_reject;
        self.stats = stats;
        self.obs_timeline = obs_timeline;
        self.journal =
            pvr_obs::EventJournal::restore(journal_capacity, journal_evicted, journal_entries);
        // The checkpointed run had already started: start-time
        // originations live in the cells now, and `on_start` will not run
        // again on the restored engine.
        self.originate_at_start.clear();
        Ok(())
    }
}

/// Every label the router ever journals. Checkpoint restore re-interns
/// decoded labels against this table (journal entries carry
/// `&'static str` kinds).
const JOURNAL_KINDS: [&str; 5] =
    ["best_change", "verify", "dampening_suppress", "attestation_reject", "origin_reject"];

impl Agent<BgpUpdate> for BgpRouter {
    fn on_start(&mut self, ctx: &mut Context<BgpUpdate>) {
        for (i, (delay, _)) in self.schedule.iter().enumerate() {
            ctx.set_timer(*delay, i as u64);
        }
        let now = ctx.now();
        let prefixes = std::mem::take(&mut self.originate_at_start);
        let mut pending = std::mem::take(&mut self.pending_scratch);
        let mut cells = std::mem::take(&mut self.cells);
        for prefix in prefixes {
            let cell = cells.entry(prefix).or_default();
            let displaced = cell.set_local(Some(Route::originate(prefix)));
            // An originated prefix keeps its cell.
            let _ = self.reselect_and_export(
                prefix,
                cell,
                ReselectHint::Full,
                displaced,
                now,
                &mut pending,
            );
        }
        self.cells = cells;
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
    }

    fn on_message(&mut self, ctx: &mut Context<BgpUpdate>, from_node: NodeId, msg: BgpUpdate) {
        // Identify the sending session from the node id.
        let Some(from) = self.session_at(from_node) else {
            return; // not a configured neighbor: ignore
        };
        // Torn session: a BGP speaker cannot receive on a closed TCP
        // connection. In-flight updates sent before the teardown are
        // discarded like bytes in a dead socket; the flushed Adj-RIB-In
        // is rebuilt solely from the peer's re-announcement at session
        // re-establishment. Without this, a stale in-flight announce
        // could repopulate state the peer no longer tracks (its
        // Adj-RIB-Out was flushed too), and no withdraw would ever
        // correct it.
        if self.sessions_down.contains(&from.asn) {
            return;
        }
        self.stats.updates_rx += 1;
        let now = ctx.now();
        // Every change in this message came from `from`'s session, so
        // the incremental decision path applies to each prefix.
        let hint = ReselectHint::Neighbor(from.asn);
        // An UPDATE carrying one route — the common case — is settled
        // on the cell that route's lookup found. One carrying several
        // first applies them all, then settles the touched prefixes in
        // sorted order: the order of emitted updates and journal
        // entries must not depend on the order of items in a message.
        let single = msg.withdraws.len() + msg.announces.len() == 1;
        let mut touched = std::mem::take(&mut self.touched_scratch);
        let mut pending = std::mem::take(&mut self.pending_scratch);
        let mut cells = std::mem::take(&mut self.cells);
        for prefix in msg.withdraws {
            let withdrawn = cells.get_mut(&prefix).and_then(|cell| {
                cell.candidates.remove(from.asn).map(|displaced| (cell, Some(displaced)))
            });
            if let Some((cell, displaced)) = withdrawn {
                self.chains_in.remove(&(from.asn, prefix));
                self.penalize(from.asn, prefix, now);
                if !single {
                    touched.push((prefix, displaced));
                } else if self.reselect_and_export(prefix, cell, hint, displaced, now, &mut pending)
                {
                    cells.remove(&prefix);
                }
            } else if self.parked.remove(&(from.asn, prefix)).is_some() {
                // Withdrawing a parked (suppressed) announcement is
                // still a flap: the penalty stays topped up while the
                // route keeps oscillating behind the suppression.
                self.penalize(from.asn, prefix, now);
            }
        }
        for sr in msg.announces {
            let prefix = sr.route.prefix;
            if self.dampening {
                let key = (from.asn, prefix);
                if let Some(state) = self.damp_states.get_mut(&key) {
                    let was_suppressed = state.suppressed;
                    let still_suppressed = state.refresh(now);
                    self.suppressed_pairs -= usize::from(was_suppressed && !still_suppressed);
                    if still_suppressed {
                        self.stats.dampening_suppressed += 1;
                        self.journal.record(now.as_micros(), "dampening_suppress", 1);
                        self.parked.insert(key, sr);
                        continue;
                    }
                }
            }
            let Some((cell, displaced)) = self.process_announce(&mut cells, &from, sr, now) else {
                continue;
            };
            if !single {
                touched.push((prefix, displaced));
            } else if self.reselect_and_export(prefix, cell, hint, displaced, now, &mut pending) {
                cells.remove(&prefix);
            }
        }
        // A prefix touched more than once settles once, against what
        // its first touch displaced: the entry as the last selection
        // saw it (the sort is stable, and `dedup` keeps the first).
        touched.sort_by_key(|&(prefix, _)| prefix);
        touched.dedup_by_key(|&mut (prefix, _)| prefix);
        for (prefix, displaced) in touched.drain(..) {
            self.reselect_prefix(&mut cells, prefix, hint, displaced, now, &mut pending);
        }
        self.cells = cells;
        self.touched_scratch = touched;
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
        self.arm_damp_timer_if_needed(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<BgpUpdate>, timer: u64) {
        if timer == MRAI_TIMER {
            self.flush_mrai_buffer(ctx);
            return;
        }
        if timer == DAMP_TIMER {
            self.damp_tick(ctx);
            return;
        }
        if timer == PVR_VERDICT_TIMER {
            // SMC verdicts due now land in this router's mailbox; the
            // drain is pure accounting (no routing action, no new
            // events), so verification latency extends convergence
            // wall-clock without perturbing route selection.
            if let Some(verifier) = &self.private_verifier {
                verifier.deliver(self.asn, ctx.now());
            }
            return;
        }
        let (_, event) = match self.schedule.get(timer as usize) {
            Some(e) => e.clone(),
            None => return,
        };
        let mut cells = std::mem::take(&mut self.cells);
        let (prefix, displaced) = match event {
            LocalEvent::Announce(p) => {
                (p, cells.entry(p).or_default().set_local(Some(Route::originate(p))))
            }
            LocalEvent::Withdraw(p) => (p, cells.get_mut(&p).and_then(|cell| cell.set_local(None))),
        };
        let mut pending = std::mem::take(&mut self.pending_scratch);
        // A local origination/withdrawal changed the local candidate,
        // which the Neighbor hint cannot cover.
        let now = ctx.now();
        self.reselect_prefix(&mut cells, prefix, ReselectHint::Full, displaced, now, &mut pending);
        self.cells = cells;
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
    }

    fn on_session(&mut self, ctx: &mut Context<BgpUpdate>, peer: NodeId, up: bool) {
        let Some(peer) = self.session_at(peer) else {
            return;
        };
        let mut pending = std::mem::take(&mut self.pending_scratch);
        if up {
            self.session_up(peer, &mut pending);
        } else {
            self.session_down(peer, ctx.now(), &mut pending);
        }
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
        self.arm_damp_timer_if_needed(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Candidate;
    use crate::path::AsPath;
    use crate::rib::{AdjRibIn, LocRib, Selection};
    use proptest::prelude::*;
    use pvr_netsim::{Fault, FaultPlan, RunLimits, Simulator};

    const ME: Asn = Asn(100);
    const EU: Community = Community(65000, 1);
    /// The sessions of the router under test, at simulator nodes 1..=5:
    /// customer, provider, EU-tagged peer, partial-transit customer
    /// contracted for EU routes, and a session policy knows nothing of.
    const NEIGHBORS: [Asn; 5] = [Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)];
    const MRAI_MS: u64 = 30;
    const SLOT_MS: u64 = 200;

    fn policy() -> PolicyConfig {
        let mut p = PolicyConfig::new();
        p.set_role(Asn(1), Role::Customer)
            .set_role(Asn(2), Role::Provider)
            .set_role(Asn(3), Role::Peer)
            .set_role(Asn(4), Role::PartialTransitCustomer { region: EU })
            .set_region_tag(Asn(3), EU);
        p
    }

    fn node_of(neighbor: Asn) -> NodeId {
        neighbor.0 as NodeId
    }

    fn prefix(i: u64) -> Prefix {
        Prefix::new((10 + i as u32) << 24, 8)
    }

    fn router() -> BgpRouter {
        let mut router = BgpRouter::new(ME, policy(), SecurityMode::Plain);
        for n in NEIGHBORS {
            router.add_neighbor(n, node_of(n));
        }
        router
    }

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

    /// One slot of a schedule. Everything in a slot reaches the router
    /// at one instant, so with MRAI on its output leaves as one merged
    /// update per neighbor.
    #[derive(Clone, Debug)]
    enum Step {
        Updates(Vec<(Asn, BgpUpdate)>),
        Local(LocalEvent),
        Session { peer: Asn, up: bool },
        Leak(bool),
    }

    fn random_route(rng: &mut HmacDrbg, from: Asn) -> Route {
        // Paths start at the sender; the tail sometimes runs through
        // the router itself (a loop, rejected on import).
        let mut path = vec![from];
        for _ in 0..rng.below(4) {
            path.push(if rng.chance(0.1) { ME } else { Asn(200 + rng.below(6) as u32) });
        }
        let mut route = Route::originate(prefix(rng.below(4)));
        route.path = AsPath::from_slice(&path);
        if rng.chance(0.1) {
            route = route.with_community(Community::NO_EXPORT);
        }
        route
    }

    fn random_steps(seed: u64, slots: usize) -> Vec<Step> {
        let mut rng = HmacDrbg::from_u64_labeled(seed, "router differential schedule");
        (0..slots)
            .map(|_| match rng.below(10) {
                0 => Step::Local(if rng.chance(0.5) {
                    LocalEvent::Announce(prefix(rng.below(4)))
                } else {
                    LocalEvent::Withdraw(prefix(rng.below(4)))
                }),
                1 => Step::Session { peer: NEIGHBORS[rng.index(5)], up: rng.chance(0.5) },
                2 => Step::Leak(rng.chance(0.5)),
                _ => Step::Updates(
                    (0..1 + rng.below(3))
                        .map(|_| {
                            let from = NEIGHBORS[rng.index(5)];
                            let mut update = BgpUpdate::default();
                            for _ in 0..1 + rng.below(3) {
                                if rng.chance(0.3) {
                                    update.withdraws.push(prefix(rng.below(4)));
                                } else {
                                    let route = random_route(&mut rng, from);
                                    update.announces.push(SignedRoute::unsigned(route));
                                }
                            }
                            (from, update)
                        })
                        .collect(),
                ),
            })
            .collect()
    }

    /// The router as it was before per-prefix cells: three RIBs, each
    /// keyed its own way, and policy asked by ASN for every decision.
    struct Model {
        policy: PolicyConfig,
        adj_in: AdjRibIn,
        loc_rib: LocRib,
        adj_out: BTreeMap<(Asn, Prefix), Route>,
        local: BTreeMap<Prefix, Candidate>,
        down: BTreeSet<Asn>,
        leak_all: bool,
        mrai: bool,
        buffer: BTreeMap<NodeId, BgpUpdate>,
        sent: Vec<(NodeId, BgpUpdate)>,
        stats: RouterStats,
    }

    impl Model {
        fn may_send(&self, cand: &Candidate, to: Asn) -> bool {
            if self.leak_all {
                cand.learned_from != Some(to)
            } else {
                self.policy.may_export(&cand.route, cand.learned_from, to)
            }
        }

        fn reselect_and_export(
            &mut self,
            prefix: Prefix,
            hint: ReselectHint,
            pending: &mut BTreeMap<NodeId, BgpUpdate>,
        ) {
            let local = self.local.get(&prefix);
            match self.loc_rib.reselect_with_hint(prefix, &self.adj_in, local, hint) {
                ReselectOutcome::UnchangedShortCircuit => self.stats.reselect_short_circuits += 1,
                ReselectOutcome::UnchangedScanned => {}
                ReselectOutcome::Changed => {
                    self.stats.best_changes += 1;
                    let best = self.loc_rib.get(prefix).cloned();
                    for to in NEIGHBORS.into_iter().filter(|n| !self.down.contains(n)) {
                        match best.as_ref().filter(|cand| self.may_send(cand, to)) {
                            Some(cand) => {
                                let out = cand.route.propagated_by(ME);
                                if self.adj_out.get(&(to, prefix)) != Some(&out) {
                                    self.adj_out.insert((to, prefix), out.clone());
                                    let update = pending.entry(node_of(to)).or_default();
                                    update.announces.push(SignedRoute::unsigned(out));
                                }
                            }
                            None => {
                                if self.adj_out.remove(&(to, prefix)).is_some() {
                                    pending.entry(node_of(to)).or_default().withdraws.push(prefix);
                                    self.stats.withdraws_sent += 1;
                                }
                            }
                        }
                    }
                }
            }
        }

        fn flush(&mut self, pending: BTreeMap<NodeId, BgpUpdate>) {
            for (node, update) in pending {
                if self.mrai {
                    self.buffer.entry(node).or_default().merge(update);
                } else {
                    self.stats.updates_tx += 1;
                    self.sent.push((node, update));
                }
            }
        }

        fn step(&mut self, step: &Step) {
            match step {
                Step::Updates(batch) => {
                    for (from, update) in batch {
                        self.on_message(*from, update);
                    }
                }
                Step::Local(event) => {
                    let prefix = match *event {
                        LocalEvent::Announce(p) => {
                            self.local.insert(p, Candidate::local(Route::originate(p)));
                            p
                        }
                        LocalEvent::Withdraw(p) => {
                            self.local.remove(&p);
                            p
                        }
                    };
                    let mut pending = BTreeMap::new();
                    self.reselect_and_export(prefix, ReselectHint::Full, &mut pending);
                    self.flush(pending);
                }
                Step::Session { peer, up } => self.on_session(*peer, *up),
                Step::Leak(on) => self.leak_all = *on,
            }
            // The MRAI timer fires once, after everything in the slot.
            for (node, update) in std::mem::take(&mut self.buffer) {
                self.stats.updates_tx += 1;
                self.sent.push((node, update));
            }
        }

        fn on_message(&mut self, from: Asn, update: &BgpUpdate) {
            if self.down.contains(&from) {
                return; // the link drops it before the router sees it
            }
            self.stats.updates_rx += 1;
            let mut touched = Vec::new();
            for &prefix in &update.withdraws {
                if self.adj_in.remove(from, prefix) {
                    touched.push(prefix);
                }
            }
            for sr in &update.announces {
                let prefix = sr.route.prefix;
                match self.policy.import(ME, from, sr.route.clone()) {
                    Some(imported) => {
                        self.stats.routes_accepted += 1;
                        self.adj_in.insert(from, imported);
                        touched.push(prefix);
                    }
                    None => {
                        self.stats.routes_rejected += 1;
                        if self.adj_in.remove(from, prefix) {
                            touched.push(prefix);
                        }
                    }
                }
            }
            touched.sort();
            touched.dedup();
            let mut pending = BTreeMap::new();
            for prefix in touched {
                self.reselect_and_export(prefix, ReselectHint::Neighbor(from), &mut pending);
            }
            self.flush(pending);
        }

        fn on_session(&mut self, peer: Asn, up: bool) {
            let mut pending = BTreeMap::new();
            if !up && self.down.insert(peer) {
                self.adj_out.retain(|&(n, _), _| n != peer);
                let lost: Vec<Prefix> =
                    self.adj_in.from_neighbor(peer).into_iter().map(|(p, _)| p).collect();
                for prefix in lost {
                    self.adj_in.remove(peer, prefix);
                    self.reselect_and_export(prefix, ReselectHint::Neighbor(peer), &mut pending);
                }
            } else if up && self.down.remove(&peer) {
                for prefix in self.loc_rib.prefixes().collect::<Vec<_>>() {
                    let cand = self.loc_rib.get(prefix).expect("listed prefix");
                    if self.may_send(cand, peer) {
                        let out = cand.route.propagated_by(ME);
                        self.adj_out.insert((peer, prefix), out.clone());
                        let update: &mut BgpUpdate = pending.entry(node_of(peer)).or_default();
                        update.announces.push(SignedRoute::unsigned(out));
                    }
                }
            }
            self.flush(pending);
        }
    }

    /// Drives the router and the model through `steps`, one slot of
    /// simulated time each, and compares everything observable after
    /// every slot.
    fn assert_router_matches_model(steps: &[Step], mrai: bool) {
        let mut router = router();
        if mrai {
            router.set_mrai(SimDuration::from_millis(MRAI_MS));
        }
        router.originate(prefix(0));
        // Local events are timers armed at start: one per slot that
        // has one, due in the middle of its slot (slot 0 is the start).
        for (i, step) in steps.iter().enumerate() {
            if let Step::Local(event) = step {
                let due = SimDuration::from_millis(SLOT_MS * (i as u64 + 1) + SLOT_MS / 2);
                router.schedule_event(due, event.clone());
            }
        }
        let mut sim: Simulator<BgpUpdate> = Simulator::new(7);
        sim.enable_trace();
        let me = sim.add_node(Box::new(router));
        for n in NEIGHBORS {
            assert_eq!(sim.add_node(Box::new(Sink)), node_of(n));
        }

        let mut model = Model {
            policy: policy(),
            adj_in: AdjRibIn::new(),
            loc_rib: LocRib::new(),
            adj_out: BTreeMap::new(),
            local: BTreeMap::new(),
            down: BTreeSet::new(),
            leak_all: false,
            mrai,
            buffer: BTreeMap::new(),
            sent: Vec::new(),
            stats: RouterStats::default(),
        };
        // Slot 0 is the start: the router originates its own prefix.
        let start = Step::Local(LocalEvent::Announce(prefix(0)));
        for (slot, step) in std::iter::once(&start).chain(steps).enumerate() {
            match step {
                Step::Updates(batch) => {
                    for (from, update) in batch {
                        sim.inject(node_of(*from), me, update.clone());
                    }
                }
                Step::Session { peer, up } => {
                    let (a, b) = (me, node_of(*peer));
                    let fault = if *up { Fault::LinkUp { a, b } } else { Fault::LinkDown { a, b } };
                    sim.set_fault_plan(FaultPlan::new().at(sim.now(), fault));
                }
                Step::Leak(on) => sim
                    .node_mut::<BgpRouter>(me)
                    .expect("router node")
                    .set_malice(Malice { leak_all: *on }),
                Step::Local(_) => {}
            }
            model.step(step);
            sim.run(RunLimits::until(SimTime(SLOT_MS * 1000 * (slot as u64 + 1))));

            let emitted: Vec<(NodeId, BgpUpdate)> = sim
                .trace()
                .expect("trace enabled")
                .iter()
                .filter(|d| d.src == me)
                .map(|d| (d.dst, d.msg.clone()))
                .collect();
            assert_eq!(emitted, model.sent, "updates emitted through slot {slot} ({step:?})");
            let router = sim.node::<BgpRouter>(me).expect("router node");
            assert_eq!(router.stats(), &model.stats, "counters after slot {slot}");
            assert_eq!(
                router.rib_entry_counts(),
                (model.adj_in.len(), model.loc_rib.len()),
                "RIB sizes after slot {slot}"
            );
            assert_eq!(router.selected_prefixes(), model.loc_rib.prefixes().collect::<Vec<_>>());
            for p in (0..4).map(prefix) {
                let modeled = model.loc_rib.get(p).map(Candidate::borrowed);
                assert_eq!(router.best_route(p), modeled, "{p} after slot {slot}");
                for n in NEIGHBORS {
                    assert_eq!(router.route_from(n, p), model.adj_in.get(n, p), "{n} {p}");
                    assert_eq!(router.advertised_to(n, p), model.adj_out.get(&(n, p)), "{n} {p}");
                }
            }
            for n in NEIGHBORS {
                assert_eq!(router.routes_from(n), model.adj_in.from_neighbor(n));
            }
            router.check_invariants().expect("RIB invariants");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random schedules of announces, withdraws, implicit withdraws,
        /// loop-rejected and role-less arrivals, local originations and
        /// withdrawals, session losses and recoveries and a leak switch:
        /// the cell router and the three-RIB model emit the same updates
        /// in the same order and agree on every accessor and counter.
        #[test]
        fn router_matches_three_rib_model(seed in 0u64..1_000_000, mrai in any::<bool>()) {
            assert_router_matches_model(&random_steps(seed, 60), mrai);
        }

        /// After any run of registrations — ASNs and nodes registered
        /// again included — a node resolves to the session a node → ASN
        /// map followed by the ASN-keyed session list resolves it to.
        #[test]
        fn session_at_matches_a_node_to_asn_map(
            adds in proptest::collection::vec((1u32..7, 0usize..6), 0..16),
        ) {
            let mut router = BgpRouter::new(ME, policy(), SecurityMode::Plain);
            let mut asn_of_node = HashMap::new();
            let view = |n: Neighbor| (n.asn, n.node, n.role, n.region_tag);
            for (asn, node) in adds {
                router.add_neighbor(Asn(asn), node);
                asn_of_node.insert(node, Asn(asn));
                for node in 0..7 {
                    let want = asn_of_node.get(&node).and_then(|&a| router.neighbor(a));
                    prop_assert_eq!(router.session_at(node).map(view), want.map(view));
                }
            }
        }
    }

    /// One hand-written cell record: the bytes `encode_record` writes,
    /// free to say what no cell holds.
    fn record(
        prefix: Prefix,
        candidates: &[(Asn, Route)],
        selection: Selection,
        local: Option<Route>,
        holders: &[Asn],
    ) -> Vec<u8> {
        let mut buf = prefix.to_wire();
        candidates.to_vec().encode(&mut buf);
        match selection {
            Selection::None => buf.push(0),
            Selection::Neighbor(n) => {
                buf.push(1);
                n.encode(&mut buf);
            }
            Selection::Local => buf.push(2),
        }
        local.encode(&mut buf);
        holders.to_vec().encode(&mut buf);
        buf
    }

    /// A router's dynamic state holding `records`, and after the RIB a
    /// fresh router's state with the session to `down` torn down.
    fn blob(records: &[Vec<u8>], down: Option<Asn>) -> Vec<u8> {
        let mut rest = router();
        rest.sessions_down.extend(down);
        let mut fresh = Vec::new();
        rest.save_dynamic(&mut fresh);
        let mut blob = (records.len() as u32).to_wire();
        blob.extend(records.concat());
        // A fresh router's RIB is a zero count.
        blob.extend_from_slice(&fresh[4..]);
        blob
    }

    /// A restored MRAI buffer may hold updates only for nodes a session
    /// is registered at.
    #[test]
    fn load_refuses_an_mrai_buffer_for_a_non_neighbor_node() {
        let buffered = |node: NodeId| {
            let mut saver = router();
            let update = BgpUpdate { announces: vec![], withdraws: vec![prefix(1)] };
            saver.mrai_buffer.insert(node, update);
            let mut blob = Vec::new();
            saver.save_dynamic(&mut blob);
            router().load_dynamic(&mut Reader::new(&blob))
        };
        assert_eq!(buffered(node_of(Asn(2))), Ok(()));
        let refused = Err(WireError::Invalid("MRAI buffer entry for a non-neighbor node"));
        assert_eq!(buffered(0), refused);
        assert_eq!(buffered(99), refused);
    }

    /// A restore accepts exactly the RIBs `check_invariants` accepts:
    /// every hostile record below is refused with the reason the check
    /// gives — among them a selection that names a present entry but
    /// not the one a from-scratch decision picks — and the router keeps
    /// what it held.
    #[test]
    fn load_refuses_hostile_cell_records_and_touches_nothing() {
        let (p1, p2) = (prefix(1), prefix(2));
        // Heard from customer AS1 and provider AS2; the shorter wins.
        let near = Route::originate(p1).propagated_by(Asn(1));
        let far = Route::originate(p1).propagated_by(Asn(7)).propagated_by(Asn(2));
        let mine = Route::originate(p2);
        let from_1 = Selection::Neighbor(Asn(1));
        let heard = |holders: &[Asn]| record(p1, &[(Asn(1), near.clone())], from_1, None, holders);
        let originated = record(p2, &[], Selection::Local, Some(mine.clone()), &NEIGHBORS[..3]);

        let mut router = router();
        let good = blob(&[heard(&[Asn(2), Asn(3)]), originated.clone()], None);
        router.load_dynamic(&mut Reader::new(&good)).expect("a RIB the router could hold");
        router.check_invariants().expect("loaded RIB");
        let best = CandidateRef { route: &near, learned_from: Some(Asn(1)) };
        assert_eq!(router.best_route(p1), Some(best));
        assert_eq!(router.advertised_to(Asn(3), p1), Some(&near.propagated_by(ME)));
        assert_eq!(router.advertised_to(Asn(1), p1), None);
        assert_eq!(router.best_route(p2), Some(CandidateRef::local(&mine)));
        assert_eq!(router.advertised_to(Asn(1), p2), Some(&mine.propagated_by(ME)));
        let mut saved = Vec::new();
        router.save_dynamic(&mut saved);
        assert_eq!(saved, good, "what was loaded is what is saved");

        let both = [(Asn(1), near.clone()), (Asn(2), far.clone())];
        let from_2 = Selection::Neighbor(Asn(2));
        let nothing = Selection::None;
        // Why, the records, the session torn down.
        type Case = (&'static str, Vec<Vec<u8>>, Option<Asn>);
        let cases: Vec<Case> = vec![
            (
                "selection names an absent entry",
                vec![record(p1, &both[..1], from_2, None, &[])],
                None,
            ),
            (
                "selection names an absent entry",
                vec![record(p1, &both[..1], Selection::Local, None, &[])],
                None,
            ),
            (
                "selection differs from a from-scratch decision",
                vec![record(p1, &both, from_2, None, &[])],
                None,
            ),
            ("holder list not strictly ascending", vec![heard(&[Asn(3), Asn(2)])], None),
            ("holder list not strictly ascending", vec![heard(&[Asn(2), Asn(2)])], None),
            ("holder is not a configured neighbor", vec![heard(&[Asn(9)])], None),
            ("holder's session is down", vec![heard(&[Asn(2)])], Some(Asn(2))),
            (
                "advertised route without holders, or holders without one",
                vec![record(p1, &[], nothing, None, &[Asn(2)])],
                None,
            ),
            (
                "route filed under another prefix",
                vec![record(p2, &both[..1], from_1, None, &[])],
                None,
            ),
            (
                "route filed under another prefix",
                vec![record(p1, &[], Selection::Local, Some(mine.clone()), &[])],
                None,
            ),
            ("cells not in ascending prefix order", vec![originated, heard(&[])], None),
            ("cells not in ascending prefix order", vec![heard(&[]), heard(&[])], None),
            ("vacant cell retained", vec![record(p1, &[], nothing, None, &[])], None),
            (
                "candidates not in ascending neighbor order",
                vec![record(p1, &[both[1].clone(), both[0].clone()], from_1, None, &[])],
                None,
            ),
        ];
        for (why, records, down) in cases {
            let err = router.load_dynamic(&mut Reader::new(&blob(&records, down))).expect_err(why);
            assert_eq!(err, WireError::Invalid(why));
            let mut after = Vec::new();
            router.save_dynamic(&mut after);
            assert_eq!(after, good, "{why}: a refused blob must leave the router as it was");
        }
    }

    /// A signed router's salt stream survives a checkpoint at the block
    /// it had reached — a fresh instantiation's stream is another — and
    /// the restored stream continues it.
    #[test]
    fn a_checkpoint_round_trip_continues_the_salt_stream() {
        use crate::topology::{figure1, BgpNetwork, InstantiateOptions};
        let (topology, cast) = figure1(&[0, 1, 2]);
        let options =
            InstantiateOptions { seed: 9, signed: true, key_bits: 512, ..Default::default() };
        let mut net = topology.instantiate(options);
        net.converge(RunLimits::none());
        let path = std::env::temp_dir().join(format!("pvr-salts-{}.ckpt", std::process::id()));
        net.checkpoint(&path).expect("checkpoint");
        let restored = BgpNetwork::restore(&path).expect("restore");
        std::fs::remove_file(&path).expect("remove the checkpoint");
        let stream = |net: &BgpNetwork, asn: Asn| match &net.router(asn).security {
            SecurityMode::Signed { salts, .. } => salts.clone(),
            SecurityMode::Plain => unreachable!("a signed network"),
        };
        assert!(stream(&net, cast.a).counter() > 0, "A drew salts before the checkpoint");
        assert_ne!(stream(&topology.instantiate(options), cast.a), stream(&net, cast.a));
        for asn in topology.ases() {
            let (mut saved, mut resumed) = (stream(&net, asn), stream(&restored, asn));
            assert_eq!(resumed, saved, "{asn:?}");
            let (mut next, mut next_resumed) = ([0; 48], [0; 48]);
            saved.fill(&mut next);
            resumed.fill(&mut next_resumed);
            assert_eq!(next_resumed, next, "{asn:?}");
        }
    }
}
