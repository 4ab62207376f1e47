//! # pvr-netsim — deterministic discrete-event network simulator
//!
//! The substrate PVR runs on in this reproduction. The paper's protocol
//! is control-plane only, so a message-passing simulator preserves every
//! behaviour the evaluation depends on: message ordering, adversarial
//! interleavings, loss, partitions, and per-node receive views (the raw
//! material for the §2.3 Confidentiality audit).
//!
//! Design notes (following the smoltcp philosophy from the project
//! guides): synchronous poll-driven core, no wall-clock reads, simple
//! data structures; the only threads are scoped workers dispatching one
//! time window's events, joined before the serial exchange. Determinism
//! is a feature under test: identical seeds reproduce identical traces,
//! bit for bit, at any shard count.

mod calendar;
pub mod fault;
pub mod link;
#[cfg(test)]
mod oracle;
pub mod sim;
pub mod state;
pub mod time;

pub use fault::{Fault, FaultPlan};
pub use link::LinkConfig;
#[doc(hidden)]
pub use sim::ShardedSimulator;
pub use sim::{
    Agent, BarrierHook, Context, Delivery, NodeId, Payload, RunLimits, SimStats, Simulator,
    StopReason,
};
pub use state::StateError;
pub use time::{SimDuration, SimTime};
