//! Engine checkpoint state: the dynamic half of a simulator as bytes.
//!
//! A checkpoint of a deterministic run needs only the state that is not
//! a pure function of construction inputs: the clock, the DRBG streams,
//! the pending-event calendars, the stats, and whatever the fault plan
//! has not yet applied. Everything else — agents, node layout, link
//! wiring — is rebuilt by the caller from its own configuration, and
//! the engine's `load_state` overlays the dynamic state on top. This
//! module holds the codec (`CommonState`, [`Wire`] impls for the
//! engine's value types, the timeline codec routers write theirs with)
//! plus the typed [`StateError`];
//! `Simulator::save_state`/`load_state` live next to the engine's
//! private fields and delegate here.
//!
//! Corruption safety: decoding never panics — every shape violation is
//! a typed error — and the engine applies a decoded state only after it
//! has been validated in full, so a failed load leaves the target
//! simulator untouched.

use crate::fault::Fault;
use crate::link::LinkConfig;
use crate::sim::{EventKind, Payload, SimStats};
use crate::time::{SimDuration, SimTime};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_obs::TimelineRecorder;
use std::collections::BTreeMap;

/// Why an engine state could not be saved or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The simulator has trace recording enabled. Traces are unbounded
    /// audit logs, not run state; a restored run would silently record
    /// only the post-restore suffix, so saving and loading both refuse.
    TraceActive,
    /// A barrier hook is installed. Hooks are arbitrary closures and
    /// cannot be serialized; detach the hook before checkpointing.
    BarrierActive,
    /// The target simulator's node count does not match the saved one.
    NodeCountMismatch {
        /// Nodes in the saved state.
        expected: usize,
        /// Nodes in the target simulator.
        found: usize,
    },
    /// The target's shard count does not match the saved one. (Full
    /// engine checkpoints are shard-shaped; cross-shard-count recovery
    /// goes through the store-level snapshots instead.)
    ShardCountMismatch {
        /// Shards in the saved state.
        expected: usize,
        /// Shards in the target simulator.
        found: usize,
    },
    /// A low-level decoding failure (truncation, bad discriminant).
    Wire(WireError),
    /// A shape violation the wire layer cannot see (node id out of
    /// range, stats field list drift, bogus counts).
    Corrupt(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::TraceActive => write!(f, "cannot checkpoint with trace recording enabled"),
            StateError::BarrierActive => {
                write!(f, "cannot checkpoint with a barrier hook installed")
            }
            StateError::NodeCountMismatch { expected, found } => {
                write!(f, "saved state has {expected} nodes, simulator has {found}")
            }
            StateError::ShardCountMismatch { expected, found } => {
                write!(f, "saved state has {expected} shards, simulator has {found}")
            }
            StateError::Wire(e) => write!(f, "malformed engine state: {e}"),
            StateError::Corrupt(what) => write!(f, "corrupt engine state: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<WireError> for StateError {
    fn from(e: WireError) -> StateError {
        StateError::Wire(e)
    }
}

pvr_crypto::wire_struct!(SimTime { 0 });
pvr_crypto::wire_struct!(SimDuration { 0 });

/// A drop probability travels as its IEEE-754 bits (exact round-trip,
/// no text detour); a value outside `0.0..=1.0`, NaN included, is
/// refused.
fn decode_drop_prob(r: &mut Reader<'_>) -> Result<f64, WireError> {
    let drop_prob = f64::from_bits(u64::decode(r)?);
    if !(0.0..=1.0).contains(&drop_prob) {
        return Err(WireError::Invalid("drop probability out of range"));
    }
    Ok(drop_prob)
}

/// Hand-written: `drop_prob` is bit-encoded and range-checked.
impl Wire for LinkConfig {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.latency.encode(buf);
        self.jitter.encode(buf);
        self.drop_prob.to_bits().encode(buf);
        self.down.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LinkConfig {
            latency: Wire::decode(r)?,
            jitter: Wire::decode(r)?,
            drop_prob: decode_drop_prob(r)?,
            down: Wire::decode(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 1
    }
}

/// Hand-written for the same reason as [`LinkConfig`]: a degraded
/// link's `drop_prob`. Each variant is its tag byte, then its fields.
impl Wire for Fault {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Fault::LinkDown { a, b } => (0u8, a, b).encode(buf),
            Fault::LinkUp { a, b } => (1u8, a, b).encode(buf),
            Fault::LinkDegrade { a, b, drop_prob, jitter } => {
                (2u8, a, b).encode(buf);
                (drop_prob.to_bits(), jitter).encode(buf);
            }
            Fault::SessionReset { a, b } => (3u8, a, b).encode(buf),
            Fault::NodePause { node } => (4u8, node).encode(buf),
            Fault::NodeResume { node } => (5u8, node).encode(buf),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let node = usize::decode;
        Ok(match u8::decode(r)? {
            0 => Fault::LinkDown { a: node(r)?, b: node(r)? },
            1 => Fault::LinkUp { a: node(r)?, b: node(r)? },
            2 => Fault::LinkDegrade {
                a: node(r)?,
                b: node(r)?,
                drop_prob: decode_drop_prob(r)?,
                jitter: Wire::decode(r)?,
            },
            3 => Fault::SessionReset { a: node(r)?, b: node(r)? },
            4 => Fault::NodePause { node: node(r)? },
            5 => Fault::NodeResume { node: node(r)? },
            _ => return Err(WireError::Invalid("fault discriminant")),
        })
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Fault::LinkDown { .. } | Fault::LinkUp { .. } | Fault::SessionReset { .. } => 8 + 8,
            Fault::LinkDegrade { .. } => 8 + 8 + 8 + 8,
            Fault::NodePause { .. } | Fault::NodeResume { .. } => 8,
        }
    }
}

/// Engine state that does not depend on the shard layout. The
/// sequence counter, link DRBG and per-shard calendars are encoded by
/// the engine on top of this.
pub(crate) struct CommonState {
    pub(crate) node_count: usize,
    pub(crate) now: SimTime,
    pub(crate) started: bool,
    pub(crate) stats: SimStats,
    pub(crate) default_link: LinkConfig,
    /// Per-pair link overrides, sorted by `(src, dst)` for canonical
    /// bytes (the in-memory map is an unordered `HashMap`).
    pub(crate) links: Vec<((usize, usize), LinkConfig)>,
    pub(crate) paused: Vec<bool>,
    /// `Some(remaining schedule)` when a fault plan is installed.
    pub(crate) faults: Option<Vec<(SimTime, Fault)>>,
    /// The timeline recorder, when the timeline is enabled.
    pub(crate) timeline: Option<TimelineRecorder>,
}

impl CommonState {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.node_count.encode(out);
        self.now.encode(out);
        self.started.encode(out);
        let fields = self.stats.fields();
        fields.len().encode(out);
        for (name, value) in fields {
            name.to_string().encode(out);
            value.encode(out);
        }
        self.default_link.encode(out);
        self.links.len().encode(out);
        for &((src, dst), cfg) in &self.links {
            src.encode(out);
            dst.encode(out);
            cfg.encode(out);
        }
        self.paused.len().encode(out);
        for &p in &self.paused {
            p.encode(out);
        }
        match &self.faults {
            None => out.push(0),
            Some(schedule) => {
                out.push(1);
                schedule.len().encode(out);
                for &(t, fault) in schedule {
                    t.encode(out);
                    fault.encode(out);
                }
            }
        }
        encode_timeline(self.timeline.as_ref(), out);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<CommonState, StateError> {
        let node_count = checked_count(r, 1)? as usize;
        let now = SimTime::decode(r)?;
        let started = bool::decode(r)?;
        let field_count = checked_count(r, 12)?;
        let mut fields = Vec::with_capacity(field_count as usize);
        for _ in 0..field_count {
            let name = String::decode(r)?;
            let value = u64::decode(r)?;
            fields.push((name, value));
        }
        let stats = SimStats::from_fields(fields.iter().map(|(n, v)| (n.as_str(), *v)))
            .ok_or(StateError::Corrupt("stats field list does not match this build"))?;
        let default_link = LinkConfig::decode(r)?;
        let link_count = checked_count(r, 17)?;
        let mut links = Vec::with_capacity(link_count as usize);
        for _ in 0..link_count {
            let src = usize::decode(r)?;
            let dst = usize::decode(r)?;
            if src >= node_count || dst >= node_count {
                return Err(StateError::Corrupt("link endpoint out of range"));
            }
            links.push(((src, dst), LinkConfig::decode(r)?));
        }
        let paused_count = checked_count(r, 1)? as usize;
        if paused_count != node_count {
            return Err(StateError::Corrupt("pause flags disagree with node count"));
        }
        let mut paused = Vec::with_capacity(paused_count);
        for _ in 0..paused_count {
            paused.push(bool::decode(r)?);
        }
        let faults = match r.take(1)?[0] {
            0 => None,
            1 => {
                let n = checked_count(r, 9)?;
                let mut schedule = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let t = SimTime::decode(r)?;
                    let fault = Fault::decode(r)?;
                    if fault_nodes(&fault).iter().any(|&id| id >= node_count) {
                        return Err(StateError::Corrupt("fault node out of range"));
                    }
                    schedule.push((t, fault));
                }
                Some(schedule)
            }
            _ => return Err(StateError::Corrupt("fault-plan discriminant")),
        };
        let timeline = decode_timeline(r)?;
        Ok(CommonState {
            node_count,
            now,
            started,
            stats,
            default_link,
            links,
            paused,
            faults,
            timeline,
        })
    }
}

/// Appends a timeline recorder, or its absence: one byte `0`, or `1`
/// then `window_us ‖ channels ‖ cell count` and each cell as its window
/// start and a counted list of channel values (counts are `u64`). The
/// engine's recorder and every router's are written by this one codec.
pub fn encode_timeline(timeline: Option<&TimelineRecorder>, out: &mut Vec<u8>) {
    timeline.is_some().encode(out);
    let Some(timeline) = timeline else { return };
    timeline.window_us().encode(out);
    timeline.channels().encode(out);
    timeline.cells().len().encode(out);
    for (start, values) in timeline.cells() {
        start.encode(out);
        values.len().encode(out);
        for v in values {
            v.encode(out);
        }
    }
}

/// Reads back what [`encode_timeline`] wrote. The shape is checked
/// before a recorder is built from it — a positive window, 1 to 64
/// channels, every cell exactly that wide, no window twice — so no
/// input reaches [`TimelineRecorder::from_cells`]'s asserts. Nothing is
/// reserved from a count: each cell read consumes input.
pub fn decode_timeline(r: &mut Reader<'_>) -> Result<Option<TimelineRecorder>, WireError> {
    if !bool::decode(r)? {
        return Ok(None);
    }
    let window_us = u64::decode(r)?;
    let channels = usize::decode(r)?;
    if window_us == 0 || channels == 0 || channels > 64 {
        return Err(WireError::Invalid("timeline shape out of range"));
    }
    let mut cells = BTreeMap::new();
    for _ in 0..u64::decode(r)? {
        let start = u64::decode(r)?;
        if usize::decode(r)? != channels {
            return Err(WireError::Invalid("timeline cell width mismatch"));
        }
        let values = (0..channels).map(|_| u64::decode(r)).collect::<Result<_, _>>()?;
        if cells.insert(start, values).is_some() {
            return Err(WireError::Invalid("duplicate timeline window"));
        }
    }
    Ok(Some(TimelineRecorder::from_cells(window_us, channels, cells)))
}

/// The node ids a fault touches, for range validation.
fn fault_nodes(fault: &Fault) -> Vec<usize> {
    match *fault {
        Fault::LinkDown { a, b }
        | Fault::LinkUp { a, b }
        | Fault::LinkDegrade { a, b, .. }
        | Fault::SessionReset { a, b } => vec![a, b],
        Fault::NodePause { node } | Fault::NodeResume { node } => vec![node],
    }
}

/// Reads a `u64` count and rejects values whose minimal encoding could
/// not fit in the remaining input (each counted item costs at least
/// `min_item_len` bytes) — a cheap guard against allocating gigabytes
/// for a corrupt length prefix.
pub(crate) fn checked_count(r: &mut Reader<'_>, min_item_len: usize) -> Result<u64, StateError> {
    let n = u64::decode(r)?;
    if n.saturating_mul(min_item_len.max(1) as u64) > r.remaining() as u64 {
        return Err(StateError::Corrupt("count exceeds remaining input"));
    }
    Ok(n)
}

/// Appends one queued event.
pub(crate) fn encode_event<P: Payload + Wire>(kind: &EventKind<P>, out: &mut Vec<u8>) {
    match kind {
        EventKind::Deliver { src, dst, msg } => {
            out.push(0);
            u64::from(*src).encode(out);
            u64::from(*dst).encode(out);
            msg.encode(out);
        }
        EventKind::Timer { node, timer } => {
            out.push(1);
            u64::from(*node).encode(out);
            timer.encode(out);
        }
    }
}

/// Reads back one queued event, validating node ids against
/// `node_count` so a corrupt id cannot panic the event loop later.
pub(crate) fn decode_event<P: Payload + Wire>(
    r: &mut Reader<'_>,
    node_count: usize,
) -> Result<EventKind<P>, StateError> {
    // `node_count` fits in `u32` (asserted when nodes are added), so a
    // checked id does too.
    let node = |r: &mut Reader<'_>| match u64::decode(r)? {
        id if id < node_count as u64 => Ok(id as u32),
        _ => Err(StateError::Corrupt("event node out of range")),
    };
    match r.take(1)?[0] {
        0 => Ok(EventKind::Deliver { src: node(r)?, dst: node(r)?, msg: P::decode(r)? }),
        1 => Ok(EventKind::Timer { node: node(r)?, timer: u64::decode(r)? }),
        _ => Err(StateError::Corrupt("event discriminant")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::encoding::decode_exact;

    #[test]
    fn link_config_rejects_bad_probability() {
        // Bypass the builder's own range assert via struct syntax.
        let cfg = LinkConfig { drop_prob: 2.0, ..LinkConfig::default() };
        let bytes = cfg.to_wire();
        assert!(decode_exact::<LinkConfig>(&bytes).is_err());
    }

    #[test]
    fn fault_round_trips() {
        let faults = [
            Fault::LinkDown { a: 1, b: 2 },
            Fault::LinkUp { a: 3, b: 0 },
            Fault::LinkDegrade { a: 1, b: 4, drop_prob: 0.25, jitter: SimDuration::from_micros(9) },
            Fault::SessionReset { a: 5, b: 6 },
            Fault::NodePause { node: 7 },
            Fault::NodeResume { node: 7 },
        ];
        for f in faults {
            assert_eq!(decode_exact::<Fault>(&f.to_wire()).unwrap(), f);
        }
        assert!(decode_exact::<Fault>(&[9]).is_err());
    }

    #[test]
    fn checked_count_guards_absurd_lengths() {
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert!(matches!(checked_count(&mut r, 4), Err(StateError::Corrupt(_))));
    }
}
