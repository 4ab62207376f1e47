//! Partial-deployment sweeps: how much of the Internet must run
//! origin validation before a prefix hijack stops paying off — and how
//! hard the attacker still hits the unprotected fringe.
//!
//! Security upgrades to interdomain routing deploy AS by AS, never all
//! at once, so the interesting curve is attack success as a function of
//! the deployed fraction. Each sweep point instantiates the same
//! topology, installs the origin-authorization table on a seeded
//! fraction of ASes, mounts a prefix hijack from a fixed placement, and
//! scores two populations separately: all honest ASes (the headline
//! curve) and the unprotected fringe (targeted interception — the ASes
//! an adaptive attacker would aim at precisely because they skipped the
//! upgrade).
//!
//! Points run on the same deterministic parallel executor as the
//! campaign matrix ([`crate::sweep::sweep`]); results are independent
//! of thread count and scheduling.

use crate::campaign::Placement;
use crate::metrics::via_attacker;
use crate::sweep::{default_parallelism, sweep};
use pvr_bgp::{Asn, InstantiateOptions, RouterStats, Topology};
use pvr_crypto::drbg::HmacDrbg;
use pvr_netsim::RunLimits;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Event budget per sweep point (same rationale as the campaign cell
/// budget: one pathological point must not hang the sweep).
const POINT_EVENT_BUDGET: u64 = 2_000_000;

/// Configuration for one partial-deployment sweep.
#[derive(Clone, Debug)]
pub struct DeploymentSweepConfig {
    /// Deployment seed: drives which ASes deploy at each fraction.
    pub seed: u64,
    /// Deployed fractions to sweep, in percent (x axis).
    pub fractions_pct: Vec<u32>,
    /// Worker threads; 0 = machine parallelism.
    pub parallelism: usize,
}

impl Default for DeploymentSweepConfig {
    fn default() -> DeploymentSweepConfig {
        DeploymentSweepConfig { seed: 0, fractions_pct: vec![0, 25, 50, 75, 100], parallelism: 0 }
    }
}

/// One point on the partial-deployment curve.
#[derive(Clone, Debug, PartialEq)]
pub struct DeploymentPoint {
    /// Fraction of honest ASes running origin validation, percent.
    pub fraction_pct: u32,
    /// How many ASes that fraction came to.
    pub protected: usize,
    /// Hijack success over all honest ASes, percent poisoned.
    pub attack_success_pct: f64,
    /// Hijack success over the unprotected fringe only, percent
    /// poisoned (the targeted-interception column; equals the overall
    /// curve at 0% deployment and is undefined-as-zero at 100%).
    pub fringe_interception_pct: f64,
    /// Malicious announcements dropped by deployed validators.
    pub origin_rejections: u64,
}

/// Sweeps hijack success against deployed fraction for one
/// attacker/victim `placement` on `topology`. Returns one
/// [`DeploymentPoint`] per configured fraction, in input order.
pub fn deployment_sweep(
    topology: &Arc<Topology>,
    placement: Placement,
    config: &DeploymentSweepConfig,
) -> Vec<DeploymentPoint> {
    let threads = if config.parallelism == 0 { default_parallelism() } else { config.parallelism };
    let fractions = config.fractions_pct.clone();
    let topology = Arc::clone(topology);
    let seed = config.seed;
    sweep(fractions.len(), threads, move |i| run_point(&topology, placement, fractions[i], seed))
}

/// Deterministically picks which honest ASes deploy at `fraction_pct`:
/// a seeded shuffle of the AS list, truncated to the rounded count.
/// Larger fractions do *not* necessarily contain smaller ones (each
/// point redraws), matching independent-measurement methodology.
fn choose_protected(
    topology: &Topology,
    attacker: Asn,
    fraction_pct: u32,
    seed: u64,
) -> BTreeSet<Asn> {
    let mut candidates: Vec<Asn> = topology.ases().filter(|&a| a != attacker).collect();
    let goal = (candidates.len() * fraction_pct as usize).div_ceil(100).min(candidates.len());
    let mut rng =
        HmacDrbg::from_u64_labeled(seed, &format!("pvr-attack deployment {fraction_pct}"));
    // Partial Fisher–Yates: only the first `goal` slots need settling.
    for i in 0..goal {
        let j = i + rng.below((candidates.len() - i) as u64) as usize;
        candidates.swap(i, j);
    }
    candidates.truncate(goal);
    candidates.into_iter().collect()
}

fn run_point(
    topology: &Arc<Topology>,
    placement: Placement,
    fraction_pct: u32,
    seed: u64,
) -> DeploymentPoint {
    let limits = RunLimits { deadline: None, max_events: Some(POINT_EVENT_BUDGET) };
    let options = InstantiateOptions { seed, ..Default::default() };

    // Clean baseline: who legitimately routes via the attacker?
    let mut clean = topology.instantiate(options);
    clean.converge(limits);
    let baseline = via_attacker(&clean, placement.attacker, &[placement.victim_prefix]);
    drop(clean);

    // Attacked run: origin validation on the protected subset only
    // (the table works in plain mode — route-origin validation deploys
    // independently of path signing).
    let protected = choose_protected(topology, placement.attacker, fraction_pct, seed);
    let mut net = topology.instantiate(options);
    let table = Arc::new(topology.origin_table());
    for &asn in &protected {
        net.router_mut(asn).set_origin_table(Arc::clone(&table));
    }
    net.router_mut(placement.attacker).originate(placement.victim_prefix);
    net.converge(limits);

    let honest: BTreeSet<Asn> = net.ases().filter(|&a| a != placement.attacker).collect();
    let poisoned: BTreeSet<Asn> =
        via_attacker(&net, placement.attacker, &[placement.victim_prefix])
            .difference(&baseline)
            .copied()
            .collect();
    let fringe: BTreeSet<Asn> = honest.difference(&protected).copied().collect();
    let poisoned_fringe = poisoned.intersection(&fringe).count();
    let pct = |hit: usize, of: usize| if of == 0 { 0.0 } else { 100.0 * hit as f64 / of as f64 };

    let mut totals = RouterStats::default();
    for asn in net.ases() {
        totals.add(net.router(asn).stats());
    }

    DeploymentPoint {
        fraction_pct,
        protected: protected.len(),
        attack_success_pct: pct(poisoned.len(), honest.len()),
        fringe_interception_pct: pct(poisoned_fringe, fringe.len()),
        origin_rejections: totals.origin_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_bgp::{internet_like, InternetParams};

    fn bed() -> (Arc<Topology>, Placement) {
        let params = InternetParams {
            tier1: 2,
            tier2: 4,
            stubs: 8,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let topology = Arc::new(internet_like(params, 11));
        let placement = crate::campaign::choose_placement(&topology, 11);
        (topology, placement)
    }

    #[test]
    fn full_deployment_blocks_the_hijack() {
        let (topology, placement) = bed();
        let config = DeploymentSweepConfig { seed: 3, fractions_pct: vec![0, 100], parallelism: 1 };
        let points = deployment_sweep(&topology, placement, &config);
        assert_eq!(points.len(), 2);
        assert!(
            points[0].attack_success_pct > 0.0,
            "undefended hijack must poison someone: {points:?}"
        );
        assert_eq!(points[0].origin_rejections, 0, "nobody validates at 0%");
        assert_eq!(
            points[1].attack_success_pct, 0.0,
            "universal origin validation blocks the hijack: {points:?}"
        );
        assert!(points[1].origin_rejections > 0, "validators must have dropped announcements");
        assert_eq!(points[1].fringe_interception_pct, 0.0, "no fringe at 100%");
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let (topology, placement) = bed();
        let mut runs = Vec::new();
        for threads in [1, 4] {
            let config = DeploymentSweepConfig {
                seed: 5,
                fractions_pct: vec![0, 50, 100],
                parallelism: threads,
            };
            runs.push(deployment_sweep(&topology, placement, &config));
        }
        assert_eq!(runs[0], runs[1], "point results must not depend on thread count");
    }

    #[test]
    fn fringe_suffers_at_least_as_much_as_the_average() {
        // The headline deployment claim: at partial deployment the
        // unprotected fringe absorbs a disproportionate share of the
        // interception (protected ASes drop the forged origin, so the
        // poisoned set concentrates in the fringe).
        let (topology, placement) = bed();
        let config =
            DeploymentSweepConfig { seed: 9, fractions_pct: vec![25, 50, 75], parallelism: 1 };
        for point in deployment_sweep(&topology, placement, &config) {
            assert!(
                point.fringe_interception_pct >= point.attack_success_pct,
                "fringe must not be safer than average at {}%: {point:?}",
                point.fraction_pct
            );
        }
    }
}
