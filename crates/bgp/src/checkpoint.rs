//! Crash-consistent checkpoint/restore and copy-on-write RIB history.
//!
//! This is the durability layer ISSUE 10 adds on top of the
//! deterministic engines: a converging network can be checkpointed to
//! one self-contained file at an engine-invariant instant, a crashed
//! run can be restored from the last checkpoint and replayed, and the
//! recovered run is **byte-identical** to an uninterrupted one — same
//! RIB fingerprints, same [`pvr_netsim::SimStats`], same metrics
//! snapshot. Determinism is what makes cheap durability possible: the
//! file only has to carry the dynamic state (clock, calendars, DRBGs,
//! RIBs, counters); everything static regenerates from the embedded
//! [`Topology`] + [`InstantiateOptions`].
//!
//! ## Checkpoint instants
//!
//! A checkpoint is taken between [`converge`](BgpNetwork::converge)
//! slices bounded by [`RunLimits::until`]. A deadline stop drains every
//! event strictly before the deadline on both engines — the same
//! drained-instant condition the PR 9 barrier hook relies on — so the
//! instant is engine-invariant: serial and sharded runs checkpoint
//! identical logical states (modulo the documented per-shard
//! `verify_cache` scope).
//!
//! ## File format (`PVRCKPT1`, version 1)
//!
//! The container reuses `pvr-store`'s framing — `magic ‖ version` then
//! tagged sections, each `tag u8 ‖ len u64 ‖ payload ‖ SHA-256(payload)`
//! (domain-separated), so any flipped bit names the damaged section:
//!
//! | tag | section   | payload                                            |
//! |-----|-----------|----------------------------------------------------|
//! | 1   | `META`    | engine kind, shard count, options, topology, origin table |
//! | 2   | `ENGINE`  | engine `save_state` bytes (clock, calendars, DRBGs) |
//! | 3   | `ROUTERS` | per-AS dynamic router state (RIBs, timers, counters) |
//! | 4   | `CACHE`   | verify-cache verdict memo(s)                        |
//! | 5   | `STORE`   | COW RIB snapshot history (`pvr-store` dump)         |
//!
//! Restore decodes and validates *everything* before constructing the
//! network, and the network is built fresh — a corrupt file yields a
//! typed [`CheckpointError`] and no partially-mutated state. Writes go
//! through a `.tmp` + rename so a crash mid-checkpoint never leaves a
//! torn file at the target path.
//!
//! ## What refuses to checkpoint
//!
//! * Private-verification mode — the GMW verifier is a barrier-hook
//!   closure with transcript state; [`CheckpointError::Refused`].
//! * Routers with active [`crate::router::Malice`] — malice is
//!   installed imperatively and is not reconstructible from the
//!   topology declaration.
//! * Engine trace recording (refused by the engine itself, surfacing
//!   as [`CheckpointError::State`]).
//!
//! ## RIB history and time travel
//!
//! Orthogonally to full checkpoints, [`BgpNetwork::snapshot_rib`]
//! captures the network-wide Loc-RIB into a content-addressed
//! copy-on-write trie ([`pvr_store::PMap`]): snapshot k+1 shares every
//! unchanged subtree with snapshot k, so a history of hundreds of
//! snapshots costs memory proportional to churn, not to RIB size. A
//! capture compares the whole RIB against snapshot k (no hashing) and
//! applies the differences as one batch, hashing each dirty node once.
//! [`BgpNetwork::route_at`] answers "what did AS x believe about
//! prefix p at time t" against that history, and the attack layer's
//! forensic bisect binary-searches it for the first poisoned instant.

use crate::decision::Candidate;
use crate::router::BgpRouter;
use crate::sbgp::VerifyCache;
use crate::topology::{BgpNetwork, InstantiateOptions, OriginTable, ShardedBgpNetwork, Topology};
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::sha256::Digest;
use pvr_netsim::{RunLimits, SimDuration, SimTime, StateError, StopReason};
use pvr_store::{
    dump_snapshots, load_snapshots, read_container, require_section, write_header, write_section,
    PMap, StoreError, HEADER_LEN, SECTION_OVERHEAD,
};
use std::cmp::Ordering;
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 8] = *b"PVRCKPT1";
/// Current checkpoint format version.
pub const CKPT_VERSION: u32 = 1;

/// Section tags (see the module docs for the layout).
const SEC_META: u8 = 1;
const SEC_ENGINE: u8 = 2;
const SEC_ROUTERS: u8 = 3;
const SEC_CACHE: u8 = 4;
const SEC_STORE: u8 = 5;

/// META engine-kind byte for the serial engine.
const KIND_SERIAL: u8 = 0;
/// META engine-kind byte for the sharded engine.
const KIND_SHARDED: u8 = 1;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The network's configuration is not checkpointable (private
    /// verification mode, active malice). The message says which.
    Refused(&'static str),
    /// Filesystem failure writing or reading the checkpoint.
    Io(std::io::Error),
    /// Container-level corruption (bad magic, damaged section, store
    /// dump failure). [`StoreError::SectionHashMismatch`] names the
    /// damaged section by tag.
    Store(StoreError),
    /// The engine refused to save/load its state, or the engine bytes
    /// don't fit this network (node/shard-count mismatch).
    State(StateError),
    /// A payload failed to decode (truncation, bad discriminant).
    Wire(WireError),
    /// A shape violation the wire layer cannot see: router list
    /// mismatch, non-ascending snapshot times, cache-count drift.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Refused(why) => write!(f, "checkpoint refused: {why}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
            CheckpointError::Store(e) => write!(f, "checkpoint container corrupt: {e}"),
            CheckpointError::State(e) => write!(f, "engine state: {e}"),
            CheckpointError::Wire(e) => write!(f, "checkpoint payload malformed: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}
impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> CheckpointError {
        CheckpointError::Store(e)
    }
}
impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> CheckpointError {
        CheckpointError::State(e)
    }
}
impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        CheckpointError::Wire(e)
    }
}

/// The engine-specific sliver of the checkpoint surface. Everything
/// else — snapshot capture, file assembly, restore validation, the
/// converge-in-slices drivers — is written once over this trait, so
/// the serial and sharded paths cannot drift (the PR's dedup satellite:
/// the engine pair shares free helpers instead of mirrored methods).
trait CheckpointHost: Sized {
    /// META engine-kind byte.
    const ENGINE_KIND: u8;
    /// Worker calendars (1 for the serial engine).
    fn shard_count_of(&self) -> u64;
    /// All ASes, ascending.
    fn ases_vec(&self) -> Vec<Asn>;
    /// Read access to one router.
    fn router_of(&self, asn: Asn) -> &BgpRouter;
    /// Write access to one router.
    fn router_of_mut(&mut self, asn: Asn) -> &mut BgpRouter;
    /// The verify cache(s): one network-wide (serial) or one per shard.
    fn caches_of(&self) -> Vec<Arc<VerifyCache>>;
    /// Whether the GMW private verifier is installed.
    fn private_verification_active(&self) -> bool;
    fn save_engine(&self) -> Result<Vec<u8>, StateError>;
    fn load_engine(&mut self, bytes: &[u8]) -> Result<(), StateError>;
    fn history_of(&self) -> &[(SimTime, PMap)];
    fn history_of_mut(&mut self) -> &mut Vec<(SimTime, PMap)>;
    fn now_of(&self) -> SimTime;
    fn options_of(&self) -> InstantiateOptions;
    fn topology_of(&self) -> &Topology;
    fn run_engine(&mut self, limits: RunLimits) -> StopReason;
    /// Re-instantiates a fresh network from restored META parts.
    fn reinstantiate(
        topology: &Topology,
        options: InstantiateOptions,
        shards: u64,
    ) -> Result<Self, CheckpointError>;
}

impl CheckpointHost for BgpNetwork {
    const ENGINE_KIND: u8 = KIND_SERIAL;
    fn shard_count_of(&self) -> u64 {
        1
    }
    fn ases_vec(&self) -> Vec<Asn> {
        self.ases().collect()
    }
    fn router_of(&self, asn: Asn) -> &BgpRouter {
        self.router(asn)
    }
    fn router_of_mut(&mut self, asn: Asn) -> &mut BgpRouter {
        self.router_mut(asn)
    }
    fn caches_of(&self) -> Vec<Arc<VerifyCache>> {
        self.verify_cache().cloned().into_iter().collect()
    }
    fn private_verification_active(&self) -> bool {
        self.private_verifier().is_some()
    }
    fn save_engine(&self) -> Result<Vec<u8>, StateError> {
        self.sim.save_state()
    }
    fn load_engine(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.sim.load_state(bytes)
    }
    fn history_of(&self) -> &[(SimTime, PMap)] {
        &self.rib_history
    }
    fn history_of_mut(&mut self) -> &mut Vec<(SimTime, PMap)> {
        &mut self.rib_history
    }
    fn now_of(&self) -> SimTime {
        self.sim.now()
    }
    fn options_of(&self) -> InstantiateOptions {
        self.options
    }
    fn topology_of(&self) -> &Topology {
        &self.topology
    }
    fn run_engine(&mut self, limits: RunLimits) -> StopReason {
        self.converge(limits)
    }
    fn reinstantiate(
        topology: &Topology,
        options: InstantiateOptions,
        shards: u64,
    ) -> Result<BgpNetwork, CheckpointError> {
        if shards != 1 {
            return Err(CheckpointError::State(StateError::ShardCountMismatch {
                expected: shards as usize,
                found: 1,
            }));
        }
        Ok(topology.instantiate(options))
    }
}

impl CheckpointHost for ShardedBgpNetwork {
    const ENGINE_KIND: u8 = KIND_SHARDED;
    fn shard_count_of(&self) -> u64 {
        self.sim.shard_count() as u64
    }
    fn ases_vec(&self) -> Vec<Asn> {
        self.ases().collect()
    }
    fn router_of(&self, asn: Asn) -> &BgpRouter {
        self.router(asn)
    }
    fn router_of_mut(&mut self, asn: Asn) -> &mut BgpRouter {
        self.router_mut(asn)
    }
    fn caches_of(&self) -> Vec<Arc<VerifyCache>> {
        self.verify_caches().to_vec()
    }
    fn private_verification_active(&self) -> bool {
        self.private_verifier().is_some()
    }
    fn save_engine(&self) -> Result<Vec<u8>, StateError> {
        self.sim.save_state()
    }
    fn load_engine(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.sim.load_state(bytes)
    }
    fn history_of(&self) -> &[(SimTime, PMap)] {
        &self.rib_history
    }
    fn history_of_mut(&mut self) -> &mut Vec<(SimTime, PMap)> {
        &mut self.rib_history
    }
    fn now_of(&self) -> SimTime {
        self.sim.now()
    }
    fn options_of(&self) -> InstantiateOptions {
        self.options
    }
    fn topology_of(&self) -> &Topology {
        &self.topology
    }
    fn run_engine(&mut self, limits: RunLimits) -> StopReason {
        self.converge(limits)
    }
    fn reinstantiate(
        topology: &Topology,
        options: InstantiateOptions,
        shards: u64,
    ) -> Result<ShardedBgpNetwork, CheckpointError> {
        Ok(topology.instantiate_sharded(options, shards as usize))
    }
}

// ---------------------------------------------------------------------
// COW RIB snapshots.

/// The store key for one Loc-RIB cell: `asn` (4 bytes BE) ‖ prefix
/// wire (addr BE ‖ len). Big-endian ASN keeps the trie's nibble paths
/// grouped per AS, which is what makes `for_each_under(asn)` and per-AS
/// diffs cheap; and key byte order is (`Asn`, `Prefix`) order, which is
/// what lets [`capture_rib`] emit its edits already sorted.
fn rib_key(asn: Asn, prefix: Prefix) -> Vec<u8> {
    let mut key = Vec::with_capacity(4 + prefix.encoded_len());
    write_rib_key(asn, prefix, &mut key);
    key
}

/// [`rib_key`] into a reused buffer.
fn write_rib_key(asn: Asn, prefix: Prefix, key: &mut Vec<u8>) {
    key.clear();
    key.extend_from_slice(&asn.0.to_be_bytes());
    prefix.encode(key);
}

/// Captures the network-wide Loc-RIB as a COW snapshot layered on
/// `base`, as one batched [`PMap::apply`].
///
/// The capture is one merge of two streams that are both in key order —
/// the live cells (routers by ASN, prefixes in `Prefix` order) and
/// `base`'s entries — comparing wire bytes and hashing nothing. Only the
/// differences become edits: a cell equal to `base`'s costs no
/// allocation and its subtree stays shared, a vanished cell becomes a
/// removal. `apply` then rebuilds each dirty trie node once, however
/// many changed cells sit under it.
fn capture_rib<T: CheckpointHost>(net: &T, base: &PMap) -> PMap {
    let ases = net.ases_vec();
    let mut cells = ases
        .iter()
        .flat_map(|&asn| {
            let router = net.router_of(asn);
            router.selected_prefixes().into_iter().map(move |prefix| {
                let best = router.best_route(prefix).expect("selected prefix has a best route");
                (asn, prefix, best)
            })
        })
        .peekable();
    let mut edits: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
    // Scratch for the cell under comparison; cloned only into an edit.
    let (mut key, mut value) = (Vec::new(), Vec::new());

    base.for_each(|base_key, base_value| {
        while let Some(&(asn, prefix, best)) = cells.peek() {
            write_rib_key(asn, prefix, &mut key);
            let order = key.as_slice().cmp(base_key);
            if order == Ordering::Greater {
                break;
            }
            value.clear();
            best.encode(&mut value);
            if order == Ordering::Less || value != base_value {
                edits.push((key.clone(), Some(value.clone())));
            }
            cells.next();
            if order == Ordering::Equal {
                return;
            }
        }
        // No live cell at this key any more.
        edits.push((base_key.to_vec(), None));
    });
    // Live cells past the base's last key.
    for (asn, prefix, best) in cells {
        edits.push((rib_key(asn, prefix), Some(best.to_wire())));
    }
    base.apply(&edits)
}

/// Captures the current Loc-RIB layered on the latest retained snapshot
/// (on the empty map when there is none): starting from the prior
/// snapshot is what keeps a long history's memory proportional to churn.
fn capture_on_latest<T: CheckpointHost>(net: &T) -> PMap {
    match net.history_of().last() {
        Some((_, latest)) => capture_rib(net, latest),
        None => capture_rib(net, &PMap::new()),
    }
}

fn snapshot_rib_impl<T: CheckpointHost>(net: &mut T) -> Digest {
    let now = net.now_of();
    let snap = capture_on_latest(net);
    let hash = snap.root_hash();
    let history = net.history_of_mut();
    match history.last_mut() {
        // Re-capturing at the same instant replaces the last snapshot
        // (converge slices can land on the same drained time twice).
        Some((t, last)) if *t == now => *last = snap,
        _ => history.push((now, snap)),
    }
    hash
}

fn route_at_impl<T: CheckpointHost>(
    net: &T,
    asn: Asn,
    prefix: Prefix,
    t: SimTime,
) -> Option<Candidate> {
    let (_, snap) = net.history_of().iter().rev().find(|(at, _)| *at <= t)?;
    let bytes = snap.get(&rib_key(asn, prefix))?;
    pvr_crypto::decode_exact::<Candidate>(bytes).ok()
}

// ---------------------------------------------------------------------
// Checkpoint assembly.

fn meta_bytes<T: CheckpointHost>(net: &T) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    buf.push(T::ENGINE_KIND);
    net.shard_count_of().encode(&mut buf);
    net.options_of().encode(&mut buf);
    net.topology_of().encode(&mut buf);
    // The origin table is installed imperatively, network-wide; embed
    // it so restore keeps rejecting unauthorized origins. Per-router
    // divergence would be silently collapsed, so it refuses instead.
    let ases = net.ases_vec();
    let first = ases.first().and_then(|&a| net.router_of(a).origin_table_ref());
    for &asn in &ases {
        let table = net.router_of(asn).origin_table_ref();
        let same = match (first, table) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if !same {
            return Err(CheckpointError::Refused(
                "routers disagree on the origin table; install one shared table",
            ));
        }
    }
    match first {
        None => false.encode(&mut buf),
        Some(table) => {
            true.encode(&mut buf);
            table.as_ref().encode(&mut buf);
        }
    }
    Ok(buf)
}

fn routers_bytes<T: CheckpointHost>(net: &T) -> Vec<u8> {
    let ases = net.ases_vec();
    let mut buf = Vec::new();
    (ases.len() as u32).encode(&mut buf);
    for asn in ases {
        asn.encode(&mut buf);
        net.router_of(asn).save_dynamic(&mut buf);
    }
    buf
}

fn caches_bytes<T: CheckpointHost>(net: &T) -> Vec<u8> {
    let caches = net.caches_of();
    let mut buf = Vec::new();
    (caches.len() as u32).encode(&mut buf);
    for cache in caches {
        let (entries, calls, hits) = cache.export_state();
        calls.encode(&mut buf);
        hits.encode(&mut buf);
        (entries.len() as u32).encode(&mut buf);
        for (signer, digest, verdict) in entries {
            signer.encode(&mut buf);
            buf.extend_from_slice(&digest);
            verdict.encode(&mut buf);
        }
    }
    buf
}

fn store_bytes<T: CheckpointHost>(net: &T) -> Vec<u8> {
    let labeled: Vec<(u64, &PMap)> =
        net.history_of().iter().map(|(t, map)| (t.as_micros(), map)).collect();
    dump_snapshots(&labeled)
}

/// Serializes the whole network into checkpoint-container bytes. The
/// refusal checks run first so a refused call does nothing at all.
fn checkpoint_bytes<T: CheckpointHost>(net: &mut T) -> Result<Vec<u8>, CheckpointError> {
    if net.private_verification_active() {
        return Err(CheckpointError::Refused(
            "private-verification mode installs a barrier hook with transcript state",
        ));
    }
    for asn in net.ases_vec() {
        if net.router_of(asn).malice_active() {
            return Err(CheckpointError::Refused(
                "a router has active malice, which is not reconstructible from the topology",
            ));
        }
    }
    // Fold the checkpoint instant into the RIB history so the STORE
    // section always covers "now" and `route_at` works right after
    // restore.
    snapshot_rib_impl(net);
    let engine = net.save_engine()?;
    let meta = meta_bytes(net)?;
    let routers = routers_bytes(net);
    let caches = caches_bytes(net);
    let store = store_bytes(net);

    let sections = [
        (SEC_META, &meta),
        (SEC_ENGINE, &engine),
        (SEC_ROUTERS, &routers),
        (SEC_CACHE, &caches),
        (SEC_STORE, &store),
    ];
    // Sized once: a buffer grown by doubling leaves a trail of freed
    // multi-megabyte blocks behind every checkpoint.
    let len = sections.iter().map(|(_, payload)| SECTION_OVERHEAD + payload.len()).sum::<usize>();
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    write_header(&CKPT_MAGIC, CKPT_VERSION, &mut out);
    for (tag, payload) in sections {
        write_section(tag, payload, &mut out);
    }
    Ok(out)
}

/// Writes `bytes` crash-consistently: the payload lands at `<path>.tmp`
/// first and is renamed into place, so a crash mid-write never leaves a
/// torn file where a checkpoint is expected.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Restore.

/// Decoded META section.
struct Meta {
    engine_kind: u8,
    shards: u64,
    options: InstantiateOptions,
    topology: Topology,
    origin_table: Option<OriginTable>,
}

fn decode_meta(payload: &[u8]) -> Result<Meta, CheckpointError> {
    let mut r = Reader::new(payload);
    let engine_kind = r.take(1)?[0];
    if engine_kind != KIND_SERIAL && engine_kind != KIND_SHARDED {
        return Err(CheckpointError::Corrupt("unknown engine kind"));
    }
    let shards = u64::decode(&mut r)?;
    if shards == 0 || shards > 4096 {
        return Err(CheckpointError::Corrupt("implausible shard count"));
    }
    let options = InstantiateOptions::decode(&mut r)?;
    let topology = Topology::decode(&mut r)?;
    let origin_table =
        if bool::decode(&mut r)? { Some(OriginTable::decode(&mut r)?) } else { None };
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }
    Ok(Meta { engine_kind, shards, options, topology, origin_table })
}

/// Restores a network of type `T` from checkpoint bytes. Everything is
/// parsed and validated against the freshly instantiated network before
/// any state is applied; on any error the partially-built network is
/// dropped and the caller keeps nothing.
fn restore_bytes<T: CheckpointHost>(bytes: &[u8]) -> Result<T, CheckpointError> {
    let sections = read_container(bytes, &CKPT_MAGIC, CKPT_VERSION)?;
    let meta = decode_meta(require_section(&sections, SEC_META)?)?;
    if meta.engine_kind != T::ENGINE_KIND {
        return Err(CheckpointError::State(StateError::EngineMismatch));
    }
    if meta.options.private_verification {
        return Err(CheckpointError::Refused(
            "checkpoint claims private-verification mode, which cannot be checkpointed",
        ));
    }
    let engine = require_section(&sections, SEC_ENGINE)?;
    let routers = require_section(&sections, SEC_ROUTERS)?;
    let caches = require_section(&sections, SEC_CACHE)?;
    let store = require_section(&sections, SEC_STORE)?;

    // Decode the store dump up front (pure validation, no network).
    let snapshots = load_snapshots(store)?;
    let mut history: Vec<(SimTime, PMap)> = Vec::with_capacity(snapshots.len());
    for (label, map) in snapshots {
        let t = SimTime(label);
        if let Some((prev, _)) = history.last() {
            if *prev >= t {
                return Err(CheckpointError::Corrupt("RIB snapshot times not ascending"));
            }
        }
        history.push((t, map));
    }

    let mut net = T::reinstantiate(&meta.topology, meta.options, meta.shards)?;
    net.load_engine(engine)?;

    // Router states: the list must cover exactly the instantiated ASes,
    // in ascending order.
    let ases = net.ases_vec();
    let mut r = Reader::new(routers);
    let count = u32::decode(&mut r)? as usize;
    if count != ases.len() {
        return Err(CheckpointError::Corrupt("router count does not match the topology"));
    }
    for &asn in &ases {
        let saved = Asn::decode(&mut r)?;
        if saved != asn {
            return Err(CheckpointError::Corrupt("router list does not match the topology"));
        }
        net.router_of_mut(asn).load_dynamic(&mut r)?;
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }

    // Verify caches: count is a property of the engine shape, so it
    // must agree with what instantiation produced.
    let targets = net.caches_of();
    let mut r = Reader::new(caches);
    let count = u32::decode(&mut r)? as usize;
    if count != targets.len() {
        return Err(CheckpointError::Corrupt("verify-cache count does not match the engine"));
    }
    for cache in &targets {
        let calls = u64::decode(&mut r)?;
        let hits = u64::decode(&mut r)?;
        let mut entries = Vec::new();
        for _ in 0..u32::decode(&mut r)? {
            let signer = Asn::decode(&mut r)?;
            let digest = r.take_array::<32>()?;
            entries.push((signer, digest, bool::decode(&mut r)?));
        }
        cache.load_state(entries, calls, hits);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }

    if let Some(table) = meta.origin_table {
        install_table(&mut net, Arc::new(table));
    }
    *net.history_of_mut() = history;
    Ok(net)
}

fn install_table<T: CheckpointHost>(net: &mut T, table: Arc<OriginTable>) {
    for asn in net.ases_vec() {
        net.router_of_mut(asn).set_origin_table(Arc::clone(&table));
    }
}

// ---------------------------------------------------------------------
// Converge-in-slices drivers.

/// Runs to quiescence (or `limits`) while capturing a COW RIB snapshot
/// every `every` of simulated time. Slice boundaries are deadline
/// stops, which both engines drain identically — the snapshots land at
/// engine-invariant instants.
fn converge_with_snapshots_impl<T: CheckpointHost>(
    net: &mut T,
    limits: RunLimits,
    every: SimDuration,
) -> StopReason {
    let every_us = every.as_micros().max(1);
    // The engine clock stays at the last processed event on a deadline
    // stop, so the boundary advances explicitly — never recomputed from
    // `now`, which would re-run an empty slice forever.
    let mut next = SimTime(net.now_of().as_micros() / every_us * every_us + every_us);
    loop {
        let slice_deadline = match limits.deadline {
            Some(d) if d < next => d,
            _ => next,
        };
        let slice = RunLimits { deadline: Some(slice_deadline), max_events: limits.max_events };
        let reason = net.run_engine(slice);
        snapshot_rib_impl(net);
        match reason {
            StopReason::Deadline => {
                if limits.deadline == Some(slice_deadline) {
                    return StopReason::Deadline;
                }
                next = SimTime(slice_deadline.as_micros() + every_us);
            }
            other => return other,
        }
    }
}

/// Like [`converge_with_snapshots_impl`], but also writes a full
/// checkpoint file at every boundary: `dir/ckpt-<t_ms>.pvr`. Returns
/// the stop reason and the path of the last checkpoint written (every
/// slice writes one, so there is always a last path).
fn converge_checkpointed_impl<T: CheckpointHost>(
    net: &mut T,
    limits: RunLimits,
    every: SimDuration,
    dir: &Path,
) -> Result<(StopReason, std::path::PathBuf), CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let every_us = every.as_micros().max(1);
    let mut next = SimTime(net.now_of().as_micros() / every_us * every_us + every_us);
    loop {
        let slice_deadline = match limits.deadline {
            Some(d) if d < next => d,
            _ => next,
        };
        let slice = RunLimits { deadline: Some(slice_deadline), max_events: limits.max_events };
        let reason = net.run_engine(slice);
        // Files are named by the slice boundary (an engine-invariant
        // drained instant), not by the clock, which lags it.
        let path = dir.join(format!("ckpt-{:08}.pvr", slice_deadline.as_micros() / 1000));
        let bytes = checkpoint_bytes(net)?;
        write_atomic(&path, &bytes)?;
        match reason {
            StopReason::Deadline => {
                if limits.deadline == Some(slice_deadline) {
                    return Ok((StopReason::Deadline, path));
                }
                next = SimTime(slice_deadline.as_micros() + every_us);
            }
            other => return Ok((other, path)),
        }
    }
}

// ---------------------------------------------------------------------
// Public surface (delegating inherent methods on both engines).

macro_rules! checkpoint_api {
    ($net:ty) => {
        impl $net {
            /// Captures the network-wide Loc-RIB into the COW snapshot
            /// history at the current sim time and returns the
            /// snapshot's content hash (the RIB fingerprint).
            pub fn snapshot_rib(&mut self) -> Digest {
                snapshot_rib_impl(self)
            }

            /// The content hash of the current network-wide Loc-RIB —
            /// byte-identical across engines and shard counts for the
            /// same logical state.
            pub fn rib_fingerprint(&self) -> Digest {
                capture_on_latest(self).root_hash()
            }

            /// What `asn` believed about `prefix` at sim time `t`,
            /// answered from the retained snapshot history (the latest
            /// snapshot at or before `t`). `None` when no snapshot
            /// covers `t` or the router had no route installed.
            pub fn route_at(&self, asn: Asn, prefix: Prefix, t: SimTime) -> Option<Candidate> {
                route_at_impl(self, asn, prefix, t)
            }

            /// Capture times of the retained RIB snapshots, ascending.
            pub fn snapshot_times(&self) -> Vec<SimTime> {
                self.history_of().iter().map(|&(t, _)| t).collect()
            }

            /// Writes a self-contained checkpoint of the whole network
            /// to `path` (crash-consistently: `.tmp` + rename) and
            /// returns the file size in bytes. See the module docs for
            /// the format and the refusal conditions.
            pub fn checkpoint(&mut self, path: &Path) -> Result<u64, CheckpointError> {
                let bytes = checkpoint_bytes(self)?;
                write_atomic(path, &bytes)?;
                Ok(bytes.len() as u64)
            }

            /// Restores a network from a checkpoint written by
            /// [`checkpoint`](Self::checkpoint). Fully validating: a
            /// corrupt or mismatched file yields a typed error and no
            /// network. The result picks up exactly where the saved
            /// run stopped — replaying it is byte-identical to never
            /// having crashed.
            pub fn restore(path: &Path) -> Result<Self, CheckpointError> {
                let bytes = std::fs::read(path)?;
                restore_bytes(&bytes)
            }

            /// Runs to quiescence (or `limits`) capturing a COW RIB
            /// snapshot every `every` of sim time, at engine-invariant
            /// drained instants.
            pub fn converge_with_snapshots(
                &mut self,
                limits: RunLimits,
                every: SimDuration,
            ) -> StopReason {
                converge_with_snapshots_impl(self, limits, every)
            }

            /// Runs to quiescence (or `limits`) writing a checkpoint
            /// file into `dir` every `every` of sim time
            /// (`ckpt-<t_ms>.pvr`). Returns the stop reason and the
            /// last checkpoint path.
            pub fn converge_checkpointed(
                &mut self,
                limits: RunLimits,
                every: SimDuration,
                dir: &Path,
            ) -> Result<(StopReason, std::path::PathBuf), CheckpointError> {
                converge_checkpointed_impl(self, limits, every, dir)
            }
        }
    };
}

checkpoint_api!(BgpNetwork);
checkpoint_api!(ShardedBgpNetwork);
