//! # pvr-attack — the adversarial campaign engine
//!
//! The paper argues that PVR lets networks detect policy violations
//! their neighbors cannot see. Arguing it requires an adversary worth
//! detecting: this crate sweeps a catalog of routing attacks — prefix
//! and sub-prefix hijacks, route leaks, forged and truncated
//! attestation chains, bogus promises, and the full Byzantine protocol
//! catalog from `pvr_core::adversary` — from an attacker/victim
//! placement on an Internet-like topology, under three escalating
//! security postures ([`SecurityMode::Plain`], [`SecurityMode::Signed`],
//! [`SecurityMode::Pvr`]), and scores every cell for impact (poisoned
//! fraction, customer-cone-weighted traffic share) and detection
//! (substrate rejections, PVR verdicts, the gossip leak audit, and
//! detection latency).
//!
//! * [`strategy`] — the [`AttackStrategy`] trait and the catalog;
//! * [`cell`] — one (strategy, placement, mode) cell and its executor;
//! * [`metrics`] — impact/detection scoring;
//! * [`gossip`] — the §3.6-style gossip audit that exposes route leaks
//!   without revealing private relationships;
//! * [`campaign`] — the sweep runner and the detection/impact matrix;
//! * [`deployment`] — partial-deployment curves: attack success vs
//!   fraction of ASes running origin validation, with the unprotected
//!   fringe scored separately (experiment E16's deployment table);
//! * [`forensic`] — snapshot bisect over the durability layer's COW
//!   RIB history: find the first instant a hijack was visible without
//!   re-running the simulation;
//! * [`mod@sweep`] — the deterministic multi-threaded executor (the
//!   workspace's first parallel path: derived per-cell seeds, results
//!   merged in cell order, output independent of scheduling).
//!
//! ## Quickstart
//!
//! ```no_run
//! use pvr_attack::{Campaign, CampaignConfig};
//!
//! let report = Campaign::new(CampaignConfig::quick(7)).run();
//! println!("{}", report.render_matrix());
//! ```
//!
//! Experiment `e12` in `pvr-bench` prints the full matrix; the
//! integration tests assert its headline claims (plain BGP poisons,
//! signed BGP still misses leaks and promises, PVR detects them all).

pub mod campaign;
pub mod cell;
pub mod deployment;
pub mod forensic;
pub mod gossip;
pub mod metrics;
pub mod strategy;
pub mod sweep;

pub use campaign::{
    choose_placement, Campaign, CampaignConfig, CampaignReport, CellResult, Placement,
    CAMPAIGN_INTERNET, DETECTION_LATENCY_BUCKETS_US,
};
pub use cell::CellContext;
pub use deployment::{deployment_sweep, DeploymentPoint, DeploymentSweepConfig};
pub use forensic::{bisect_first_poisoned, ForensicBisect};
pub use gossip::{leak_gossip_audit, LeakEvidence};
pub use metrics::AttackOutcome;
pub use strategy::{catalog, AttackKind, AttackStrategy, SecurityMode};
pub use sweep::{default_parallelism, sweep};
