//! # pvr-bgp — the interdomain routing substrate
//!
//! A from-scratch "BGP-lite" sufficient for everything the PVR paper
//! assumes about the routing system it secures:
//!
//! * [`types`] / [`path`] / [`route`] — prefixes, AS paths, attributes;
//! * [`rib`] — Adj-RIB-In / Loc-RIB / Adj-RIB-Out (the paper's "set of
//!   input routes" and "output" made explicit, §2);
//! * [`decision`] — the standard ranking pipeline §2.1 decomposes into
//!   operators;
//! * [`policy`] — Gao–Rexford relationships plus the paper's partial
//!   transit example ("routes from, e.g., European peers");
//! * [`sbgp`] — S-BGP-style route attestations \[13\], the substrate for
//!   PVR's condition 1 ("sign all the routing announcements", §3.2);
//! * [`private`] — the paper's tentpole run for real: batched GMW
//!   verification of route selections during convergence, flushed at
//!   engine barriers and priced by the SMC cost model;
//! * [`router`] — the speaker as a simulator agent;
//! * [`dampening`] — RFC 2439-style route-flap dampening state;
//! * [`topology`] — Figure 1 scenario and Internet-like generators;
//! * [`checkpoint`] — crash-consistent checkpoint/restore and the
//!   copy-on-write RIB snapshot history (time travel, forensics);
//! * [`cores`] — the process's core budget, which decides when
//!   S-BGP signing may run ahead on a spare core;
//! * [`partition`] — deterministic AS → shard assignment;
//! * [`workload`] — flaps, bursts, churn.
//!
//! ## Implemented / omitted (smoltcp-style expectations)
//!
//! Implemented: UPDATE processing, implicit and explicit withdraw, loop
//! rejection, LOCAL_PREF/AS-path/origin/MED/tiebreak ranking,
//! valley-free export, partial transit, NO_EXPORT, attestation chains,
//! scheduled workloads, MRAI batching with jittered timers, session
//! up/down semantics (teardown flushes Adj-RIBs and floods withdraws,
//! recovery re-announces), and route-flap dampening.
//!
//! Omitted (orthogonal to the paper): the full FSM's TCP-level states,
//! iBGP, route reflection, aggregation/AS_SET, IPv6 (IPv4 prefixes
//! only).

pub mod checkpoint;
pub mod cores;
pub mod dampening;
pub mod decision;
pub mod messages;
pub mod partition;
pub mod path;
pub mod policy;
pub mod private;
pub mod rib;
pub mod route;
pub mod router;
pub mod sbgp;
pub mod sorted;
pub mod topology;
pub mod types;
pub mod workload;

pub use checkpoint::{CheckpointError, CKPT_MAGIC, CKPT_VERSION};
pub use cores::CoreBudget;
pub use dampening::{DampState, DampeningPolicy};
pub use decision::{best, prefer, Candidate, CandidateRef};
pub use messages::BgpUpdate;
pub use partition::{cut_edges, partition_by_degree};
pub use path::AsPath;
pub use policy::{PolicyConfig, Role};
pub use private::{PrivateRequest, PrivateVerifier, SmcBatchStats, PVR_VERDICT_TIMER};
pub use rib::{AdjRibIn, LocRib};
pub use route::{Community, Origin, Route};
pub use router::{BgpRouter, LocalEvent, Malice, RouterStats, SecurityMode};
pub use sbgp::{demo_chain, Attestation, AttestationChain, SbgpError, SignedRoute, VerifyCache};
#[doc(hidden)]
pub use topology::ShardedBgpNetwork;
pub use topology::{
    figure1, internet_like, BgpNetwork, Edge, Figure1Cast, InstantiateOptions, InternetParams,
    OriginTable, Topology,
};
pub use types::{Asn, Prefix};
