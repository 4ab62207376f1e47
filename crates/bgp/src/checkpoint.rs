//! Crash-consistent checkpoint/restore and copy-on-write RIB history.
//!
//! This is the durability layer on top of the deterministic engine: a
//! converging network can be checkpointed to
//! one self-contained file at a shard-count-invariant instant, a crashed
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
//! event up to the deadline — the same drained-instant condition the
//! barrier hook relies on — so the instant is shard-count invariant:
//! runs at any shard count checkpoint identical logical states (modulo
//! the documented per-shard `verify_cache` scope).
//!
//! ## File format (`PVRCKPT3`, version 3)
//!
//! The container reuses `pvr-store`'s framing — `magic ‖ version` then
//! tagged sections, each `tag u8 ‖ len u64 ‖ payload ‖ SHA-256(payload)`
//! (domain-separated), so any flipped bit names the damaged section:
//!
//! | tag | section   | payload                                            |
//! |-----|-----------|----------------------------------------------------|
//! | 1   | `META`    | shard count, options, topology, origin table       |
//! | 2   | `ENGINE`  | engine `save_state` bytes (clock, link DRBG, per-shard calendars) |
//! | 3   | `ROUTERS` | per-AS dynamic router state: one record per prefix cell, then chains, timers, counters |
//! | 4   | `CACHE`   | verify-cache verdict memos, one per shard          |
//! | 5   | `STORE`   | COW RIB snapshot history (`pvr-store` dump)         |
//!
//! Version 2 (`PVRCKPT2`) wrote each router's RIB as three lists
//! instead of cell records; version 1 (`PVRCKPT1`) also carried an
//! engine-kind byte in META. Such files fail the container's
//! magic/version check with a typed [`StoreError`].
//!
//! Restore decodes and validates *everything* before constructing the
//! network, and the network is built fresh — a corrupt file, or one
//! whose RIB fails the check
//! [`check_invariants`](crate::router::BgpRouter::check_invariants)
//! runs, yields a typed [`CheckpointError`] and no partially-mutated
//! state. Writes go
//! through a `.tmp` + rename so a crash mid-checkpoint never leaves a
//! torn file at the target path, and a write that fails removes its
//! `.tmp`.
//!
//! ## Write pipeline
//!
//! A checkpoint is two halves. Building the five payloads reads the
//! network (engine state, META, the RIB capture, ROUTERS, CACHE and the
//! STORE dump) and runs on the caller's thread. Framing them — a
//! SHA-256 over every payload byte — and streaming header, section
//! heads, payloads and digests through a buffered file to `.tmp` +
//! rename reads only those payloads. [`BgpNetwork::checkpoint`] does
//! both halves before it returns. [`BgpNetwork::converge_checkpointed`]
//! hands the second half of each boundary's checkpoint to one scoped
//! writer thread and runs the next slice meanwhile:
//!
//! * at most one checkpoint is in flight — a boundary builds its
//!   payloads, then joins the previous writer, then starts its own;
//! * a file is on disk, complete under its final name, once its writer
//!   is joined: at the next boundary, or before the call returns, which
//!   joins every writer whatever the outcome;
//! * the bytes of every file are exactly those `checkpoint` writes at
//!   the same boundary — the pipeline moves when bytes land, never what
//!   they are;
//! * errors come back in boundary order. A write that fails is seen at
//!   the next boundary, so after a write failure the network may have
//!   run at most one slice past the failed checkpoint (and taken that
//!   boundary's RIB snapshot); every file before the failed one is
//!   complete, and no `.tmp` is left behind.
//!
//! A signed network's sign-ahead helpers start once for the whole
//! sliced run and keep signing across boundaries; the writer counts as
//! a busy thread in [`crate::cores::CoreBudget`], so a helper gives up
//! its core while a file is being framed.
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

use crate::cores::CoreBudget;
use crate::decision::Candidate;
use crate::sbgp::CacheState;
use crate::topology::{BgpNetwork, InstantiateOptions, OriginTable, Topology};
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{decode_exact, Reader, Wire, WireError};
use pvr_crypto::rsa::RsaPrivateKey;
use pvr_crypto::sha256::Digest;
use pvr_netsim::{RunLimits, SimDuration, SimTime, StateError, StopReason};
use pvr_store::{
    dump_snapshots, load_snapshots, read_container, require_section, write_container, PMap,
    StoreError,
};
use std::cmp::Ordering;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 8] = *b"PVRCKPT3";
/// Current checkpoint format version.
pub const CKPT_VERSION: u32 = 3;

/// Section tags (see the module docs for the layout).
const SEC_META: u8 = 1;
const SEC_ENGINE: u8 = 2;
const SEC_ROUTERS: u8 = 3;
const SEC_CACHE: u8 = 4;
const SEC_STORE: u8 = 5;

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

impl BgpNetwork {
    /// Captures the network-wide Loc-RIB as a COW snapshot layered on
    /// `base`, as one batched [`PMap::apply`].
    ///
    /// The capture is one merge of two streams that are both in key
    /// order — the live cells (routers by ASN, prefixes in `Prefix`
    /// order) and `base`'s entries — comparing wire bytes and hashing
    /// nothing. Only the differences become edits: a cell equal to
    /// `base`'s costs no allocation and its subtree stays shared, a
    /// vanished cell becomes a removal. `apply` then rebuilds each dirty
    /// trie node once, however many changed cells sit under it.
    fn capture_rib(&self, base: &PMap) -> PMap {
        let mut cells = self
            .ases()
            .flat_map(|asn| {
                let router = self.router(asn);
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

    /// Captures the current Loc-RIB layered on the latest retained
    /// snapshot (on the empty map when there is none): starting from the
    /// prior snapshot is what keeps a long history's memory proportional
    /// to churn.
    fn capture_on_latest(&self) -> PMap {
        match self.rib_history.last() {
            Some((_, latest)) => self.capture_rib(latest),
            None => self.capture_rib(&PMap::new()),
        }
    }

    /// Captures the network-wide Loc-RIB into the COW snapshot history
    /// at the current sim time and returns the snapshot's content hash
    /// (the RIB fingerprint).
    pub fn snapshot_rib(&mut self) -> Digest {
        let now = self.sim.now();
        let snap = self.capture_on_latest();
        let hash = snap.root_hash();
        match self.rib_history.last_mut() {
            // Re-capturing at the same instant replaces the last snapshot
            // (converge slices can land on the same drained time twice).
            Some((t, last)) if *t == now => *last = snap,
            _ => self.rib_history.push((now, snap)),
        }
        hash
    }

    /// The content hash of the current network-wide Loc-RIB —
    /// byte-identical across shard counts for the same logical state.
    pub fn rib_fingerprint(&self) -> Digest {
        self.capture_on_latest().root_hash()
    }

    /// What `asn` believed about `prefix` at sim time `t`, answered from
    /// the retained snapshot history (the latest snapshot at or before
    /// `t`). `None` when no snapshot covers `t` or the router had no
    /// route installed.
    pub fn route_at(&self, asn: Asn, prefix: Prefix, t: SimTime) -> Option<Candidate> {
        let (_, snap) = self.rib_history.iter().rev().find(|(at, _)| *at <= t)?;
        let bytes = snap.get(&rib_key(asn, prefix))?;
        pvr_crypto::decode_exact::<Candidate>(bytes).ok()
    }

    /// Capture times of the retained RIB snapshots, ascending.
    pub fn snapshot_times(&self) -> Vec<SimTime> {
        self.rib_history.iter().map(|&(t, _)| t).collect()
    }

    // -----------------------------------------------------------------
    // Checkpoint assembly.

    fn meta_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut buf = Vec::new();
        self.sim.shard_count().encode(&mut buf);
        self.options.encode(&mut buf);
        self.topology.encode(&mut buf);
        // The origin table is installed imperatively, network-wide; embed
        // it so restore keeps rejecting unauthorized origins. Per-router
        // divergence would be silently collapsed, so it refuses instead.
        let mut tables = self.ases().map(|asn| self.router(asn).origin_table_ref());
        let first = tables.next().flatten();
        let same = |table: Option<&Arc<OriginTable>>| match (first, table) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if !tables.all(same) {
            return Err(CheckpointError::Refused(
                "routers disagree on the origin table; install one shared table",
            ));
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

    fn routers_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        (self.ases().count() as u32).encode(&mut buf);
        for asn in self.ases() {
            asn.encode(&mut buf);
            self.router(asn).save_dynamic(&mut buf);
        }
        buf
    }

    fn caches_bytes(&self) -> Vec<u8> {
        let states: Vec<_> = self.verify_caches().iter().map(|c| c.export_state()).collect();
        states.to_wire()
    }

    fn store_bytes(&self) -> Vec<u8> {
        let labeled: Vec<(u64, &PMap)> =
            self.rib_history.iter().map(|(t, map)| (t.as_micros(), map)).collect();
        dump_snapshots(&labeled)
    }

    /// Builds the payloads of a checkpoint of the whole network: all of
    /// a checkpoint that reads the network. Every step that can refuse
    /// or fail runs before the one that changes the network, so a
    /// refused or failed call does nothing at all.
    fn checkpoint_sections(&mut self) -> Result<Sections, CheckpointError> {
        if self.private_verifier().is_some() {
            return Err(CheckpointError::Refused(
                "private-verification mode installs a barrier hook with transcript state",
            ));
        }
        if self.ases().any(|asn| self.router(asn).malice_active()) {
            return Err(CheckpointError::Refused(
                "a router has active malice, which is not reconstructible from the topology",
            ));
        }
        let engine = self.sim.save_state()?;
        let meta = self.meta_bytes()?;
        // Fold the checkpoint instant into the RIB history so the STORE
        // section always covers "now" and `route_at` works right after
        // restore.
        self.snapshot_rib();
        Ok([
            (SEC_META, meta),
            (SEC_ENGINE, engine),
            (SEC_ROUTERS, self.routers_bytes()),
            (SEC_CACHE, self.caches_bytes()),
            (SEC_STORE, self.store_bytes()),
        ])
    }

    /// Writes a self-contained checkpoint of the whole network to `path`
    /// (crash-consistently: `.tmp` + rename) and returns the file size
    /// in bytes. See the module docs for the format and the refusal
    /// conditions.
    pub fn checkpoint(&mut self, path: &Path) -> Result<u64, CheckpointError> {
        let sections = self.checkpoint_sections()?;
        Ok(write_checkpoint(path, &sections)?)
    }

    // -----------------------------------------------------------------
    // Restore.

    /// Restores a network from a checkpoint written by
    /// [`checkpoint`](Self::checkpoint), at the shard count recorded in
    /// the file. Fully validating: a corrupt or mismatched file yields a
    /// typed error and no network. The result picks up exactly where the
    /// saved run stopped — replaying it is byte-identical to never
    /// having crashed.
    pub fn restore(path: &Path) -> Result<BgpNetwork, CheckpointError> {
        BgpNetwork::restore_bytes(&std::fs::read(path)?)
    }

    /// Restores a network from checkpoint bytes. Everything is parsed
    /// and validated against the freshly instantiated network before any
    /// state is applied; on any error the partially-built network is
    /// dropped and the caller keeps nothing.
    fn restore_bytes(bytes: &[u8]) -> Result<BgpNetwork, CheckpointError> {
        let sections = read_container(bytes, &CKPT_MAGIC, CKPT_VERSION)?;
        let meta = decode_meta(require_section(&sections, SEC_META)?)?;
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
            if history.last().is_some_and(|(prev, _)| *prev >= t) {
                return Err(CheckpointError::Corrupt("RIB snapshot times not ascending"));
            }
            history.push((t, map));
        }

        let mut net = meta.topology.instantiate_sharded(meta.options, meta.shards);
        net.sim.load_state(engine)?;

        // Router states: the list must cover exactly the instantiated
        // ASes, in ascending order.
        let ases: Vec<Asn> = net.ases().collect();
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
            net.router_mut(asn).load_dynamic(&mut r)?;
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
        }

        // Verify caches: one per shard in signed mode, so the count must
        // agree with what instantiation produced.
        let states: Vec<CacheState> = decode_exact(caches)?;
        if states.len() != net.verify_caches().len() {
            return Err(CheckpointError::Corrupt("verify-cache count does not match the shards"));
        }
        for (cache, state) in net.verify_caches().iter().zip(states) {
            cache.load_state(state);
        }

        if let Some(table) = meta.origin_table {
            net.install_origin_table(Arc::new(table));
        }
        net.rib_history = history;
        Ok(net)
    }

    // -----------------------------------------------------------------
    // Converge-in-slices drivers.

    /// Runs to quiescence (or `limits`) in deadline-bounded slices of
    /// `every` sim time, calling `at_boundary(self, slice_deadline)`
    /// after each. Slice boundaries are deadline stops, which drain the
    /// same events at every shard count — the boundaries land at
    /// shard-count-invariant instants.
    fn converge_sliced<E>(
        &mut self,
        limits: RunLimits,
        every: SimDuration,
        mut at_boundary: impl FnMut(&mut BgpNetwork, SimTime) -> Result<(), E>,
    ) -> Result<StopReason, E> {
        let every_us = every.as_micros().max(1);
        // The engine clock stays at the last processed event on a
        // deadline stop, so the boundary advances explicitly — never
        // recomputed from `now`, which would re-run an empty slice
        // forever.
        let mut next = SimTime(self.sim.now().as_micros() / every_us * every_us + every_us);
        // One engine run around every slice: sign-ahead helpers start
        // once and keep signing through the boundaries.
        self.run_engine(|net| loop {
            let slice_deadline = match limits.deadline {
                Some(d) if d < next => d,
                _ => next,
            };
            let slice = RunLimits { deadline: Some(slice_deadline), max_events: limits.max_events };
            let reason = net.sim.run(slice);
            at_boundary(net, slice_deadline)?;
            match reason {
                StopReason::Deadline if limits.deadline != Some(slice_deadline) => {
                    next = SimTime(slice_deadline.as_micros() + every_us);
                }
                other => return Ok(other),
            }
        })
    }

    /// Runs to quiescence (or `limits`) capturing a COW RIB snapshot
    /// every `every` of sim time, at shard-count-invariant drained
    /// instants.
    pub fn converge_with_snapshots(&mut self, limits: RunLimits, every: SimDuration) -> StopReason {
        let snapshot = |net: &mut BgpNetwork, _| -> Result<(), std::convert::Infallible> {
            net.snapshot_rib();
            Ok(())
        };
        let Ok(reason) = self.converge_sliced(limits, every, snapshot);
        reason
    }

    /// Runs to quiescence (or `limits`) writing a checkpoint file into
    /// `dir` every `every` of sim time (`ckpt-<t_ms>.pvr`). Returns the
    /// stop reason and the last checkpoint path (every slice writes one,
    /// so there is always a last path).
    ///
    /// Each file holds exactly the bytes [`checkpoint`](Self::checkpoint)
    /// would write at that boundary, but is framed and written on a
    /// second thread while the next slice runs — see "Write pipeline" in
    /// the module docs for when a file is on disk and where the network
    /// stands after a failure.
    pub fn converge_checkpointed(
        &mut self,
        limits: RunLimits,
        every: SimDuration,
        dir: &Path,
    ) -> Result<(StopReason, PathBuf), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let mut last = PathBuf::new();
        std::thread::scope(|scope| {
            // The checkpoint being written while the next slice runs.
            let mut in_flight = None;
            let reason: Result<_, CheckpointError> =
                self.converge_sliced(limits, every, |net, slice_deadline| {
                    let sections = net.checkpoint_sections();
                    // At most one checkpoint in flight; the previous one's
                    // error comes first, being the earlier boundary's.
                    finish(in_flight.take())?;
                    let sections = sections?;
                    // Files are named by the slice boundary (a shard-count-
                    // invariant drained instant), not by the clock, which
                    // lags it.
                    last = dir.join(format!("ckpt-{:08}.pvr", slice_deadline.as_micros() / 1000));
                    let path = last.clone();
                    in_flight = Some(scope.spawn(move || {
                        // A core sign-ahead helpers must not count on.
                        let _writer = CoreBudget::process().occupy(1);
                        write_checkpoint(&path, &sections)
                    }));
                    Ok(())
                });
            // A boundary that failed has already joined its predecessor,
            // so only a run that succeeded leaves a writer to wait for.
            let reason = reason?;
            finish(in_flight)?;
            Ok((reason, last))
        })
    }
}

/// The payloads of one checkpoint, in file order. Everything that reads
/// the network went into them; framing them into a file reads nothing
/// else, so it can run beside the next slice.
type Sections = [(u8, Vec<u8>); 5];

/// Frames `sections` into a checkpoint file at `path` and returns its
/// size in bytes. Crash-consistent: the container streams to
/// `<path>.tmp` through a buffer and is renamed into place, so a crash
/// mid-write never leaves a torn file where a checkpoint is expected;
/// on any failure the `.tmp` is removed again, so nothing but complete
/// files is ever left in the directory.
fn write_checkpoint(path: &Path, sections: &Sections) -> io::Result<u64> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = stream_container(&tmp, sections).and_then(|len| {
        std::fs::rename(&tmp, path)?;
        Ok(len)
    });
    if written.is_err() {
        // Best effort: the error being returned is the one that matters.
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn stream_container(path: &Path, sections: &Sections) -> io::Result<u64> {
    let mut out = BufWriter::new(File::create(path)?);
    let len = write_container(&mut out, &CKPT_MAGIC, CKPT_VERSION, sections)?;
    // Flushing here, not on drop, is what surfaces a failed last write.
    out.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok(len)
}

/// Waits for an in-flight checkpoint writer and returns its error.
fn finish(writer: Option<ScopedJoinHandle<'_, io::Result<u64>>>) -> Result<(), CheckpointError> {
    if let Some(writer) = writer {
        writer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
    }
    Ok(())
}

/// Decoded META section.
struct Meta {
    shards: usize,
    options: InstantiateOptions,
    topology: Topology,
    origin_table: Option<OriginTable>,
}

fn decode_meta(payload: &[u8]) -> Result<Meta, CheckpointError> {
    let mut r = Reader::new(payload);
    let shards = usize::decode(&mut r)?;
    if shards == 0 || shards > 4096 {
        return Err(CheckpointError::Corrupt("implausible shard count"));
    }
    let options = InstantiateOptions::decode(&mut r)?;
    // Restore re-runs `instantiate` with these options, which asserts
    // on what a caller must not pass; a file must not get that far.
    if options.signed && !RsaPrivateKey::supports(options.key_bits) {
        return Err(CheckpointError::Corrupt("unsupported RSA key size"));
    }
    if options.timeline_window == Some(SimDuration::ZERO) {
        return Err(CheckpointError::Corrupt("timeline window must be positive"));
    }
    // A zero reuse tick re-arms the dampening timer at the same
    // instant forever: no penalty decays and the run never quiesces.
    if options.dampening.is_some_and(|policy| policy.reuse_tick == SimDuration::ZERO) {
        return Err(CheckpointError::Corrupt("dampening reuse tick must be positive"));
    }
    let topology = Topology::decode(&mut r)?;
    let origin_table = Option::<OriginTable>::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }
    Ok(Meta { shards, options, topology, origin_table })
}
