//! # PVR — Private and Verifiable Routing
//!
//! A full reproduction of *"Having Your Cake and Eating It Too: Routing
//! Security with Privacy Protections"* (Gurney, Haeberlen, Zhou, Sherr,
//! Loo — HotNets-X, 2011): a protocol that lets ISPs check whether their
//! neighbors fulfill contractual routing promises, and obtain evidence
//! of violations, **without disclosing information the routing protocol
//! does not already reveal**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`crypto`] — SHA-256, HMAC-DRBG, bignum/RSA, commitments, RST ring
//!   signatures, canonical wire encoding (all from scratch);
//! * [`mht`] — sparse Merkle hash trees with prefix-free labels and
//!   blinded siblings (§3.6), sequential trees for batching (§3.8),
//!   signed roots and equivocation evidence;
//! * [`netsim`] — the deterministic discrete-event network simulator;
//! * [`bgp`] — BGP-lite: RIBs, decision process, Gao–Rexford policies,
//!   partial transit, S-BGP attestations, topologies, workloads;
//! * [`rfg`] — route-flow graphs, the α access-control function, promise
//!   semantics and static checking (§2);
//! * [`core`] — the PVR protocol itself: bit-vector commitments,
//!   selective disclosure, verification, evidence, the third-party
//!   auditor, Byzantine adversaries, the confidentiality auditor, and
//!   the in-network protocol (§3);
//! * [`smc`] — the §3.1 strawmen: a real GMW execution plus calibrated
//!   cost models;
//! * [`attack`] — the adversarial campaign engine: hijack/leak/forgery
//!   strategies swept over security modes on a
//!   deterministic parallel executor;
//! * [`store`] — the content-addressed copy-on-write persistent RIB
//!   store: O(1) snapshots, structural diffs, and integrity-checked
//!   dump/load under the crash-consistent checkpoint format;
//! * [`obs`] — the deterministic telemetry layer: metrics snapshots,
//!   sim-time tracing and event journals, convergence timelines, and
//!   Prometheus exposition.
//!
//! ## Quickstart
//!
//! ```
//! use pvr::core::{run_min_round, Figure1Bed, Misbehavior};
//!
//! // Figure 1: three providers advertise routes of lengths 2, 3, 4 to
//! // network A, which promised B the shortest.
//! let bed = Figure1Bed::build(&[2, 3, 4], 7);
//!
//! // Honest round: every check passes.
//! assert!(run_min_round(&bed, None).clean());
//!
//! // A exports a longer route instead: B detects it, gets evidence,
//! // and the third-party auditor convicts.
//! let report = run_min_round(&bed, Some(Misbehavior::ExportLonger));
//! assert!(report.detected() && report.convicted());
//! ```

pub use pvr_attack as attack;
pub use pvr_bgp as bgp;
pub use pvr_core as core;
pub use pvr_crypto as crypto;
pub use pvr_mht as mht;
pub use pvr_netsim as netsim;
pub use pvr_obs as obs;
pub use pvr_rfg as rfg;
pub use pvr_smc as smc;
pub use pvr_store as store;
