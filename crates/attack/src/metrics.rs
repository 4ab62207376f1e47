//! Impact and detection scoring for one campaign cell.

use pvr_bgp::{Asn, BgpNetwork, BgpRouter, Prefix};
use pvr_netsim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// What one mounted attack achieved and what the defenses saw.
///
/// Detection semantics differ by family: substrate rejections
/// (attestation/origin failures) are *preventive* — the poisoned
/// fraction they leave behind is zero — while PVR verdicts and the
/// gossip audit are *detective*: the traffic moved, but the violator
/// is caught with transferable evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackOutcome {
    /// Fraction of honest ASes whose best route to a target prefix
    /// traverses the attacker although it did not in the clean baseline.
    pub poisoned_fraction: f64,
    /// The same set weighted by customer-cone size — a proxy for the
    /// share of Internet traffic the attacker now sees.
    pub cone_share: f64,
    /// Did any honest party detect the attack under this security mode?
    pub detected: bool,
    /// Transferable evidence items (substrate rejections, PVR verdicts,
    /// gossip findings) backing the detection.
    pub evidence: usize,
    /// Simulated time of the first security rejection, when the
    /// substrate caught the attack in-band (`None` for post-hoc audits
    /// and PVR round verdicts).
    pub detection_time: Option<SimTime>,
    /// True when the substrate dropped every malicious announcement —
    /// the attack was not merely detected but never took effect.
    pub blocked: bool,
    /// Attestation-signature checks performed network-wide during the
    /// attacked run (signed modes; 0 under `Plain`).
    pub verify_calls: u64,
    /// How many of those the per-shard verification caches answered
    /// without RSA math — the E13 chain-verify hit-rate source.
    pub verify_cache_hits: u64,
}

impl AttackOutcome {
    /// An outcome for attacks with no routing-plane footprint (PVR
    /// round attacks in modes without PVR verification).
    pub fn unobserved() -> AttackOutcome {
        AttackOutcome {
            poisoned_fraction: 0.0,
            cone_share: 0.0,
            detected: false,
            evidence: 0,
            detection_time: None,
            blocked: false,
            verify_calls: 0,
            verify_cache_hits: 0,
        }
    }
}

/// The set of ASes whose current best route to any of `targets`
/// traverses `attacker` (the attacker itself excluded).
pub fn via_attacker(net: &BgpNetwork, attacker: Asn, targets: &[Prefix]) -> BTreeSet<Asn> {
    let mut out = BTreeSet::new();
    for asn in net.ases() {
        if asn == attacker {
            continue;
        }
        let router: &BgpRouter = net.router(asn);
        for &p in targets {
            if let Some(best) = router.best_route(p) {
                if best.route.path.contains(attacker) {
                    out.insert(asn);
                }
            }
        }
    }
    out
}

/// Aggregates a poisoned set into (fraction of honest ASes, customer-
/// cone-weighted share). `cones` comes from
/// [`pvr_bgp::Topology::customer_cone_sizes`].
pub fn poisoning_scores(
    poisoned: &BTreeSet<Asn>,
    honest: &BTreeSet<Asn>,
    cones: &BTreeMap<Asn, usize>,
) -> (f64, f64) {
    if honest.is_empty() {
        return (0.0, 0.0);
    }
    let weight = |asn: Asn| cones.get(&asn).copied().unwrap_or(1) as f64;
    let total: f64 = honest.iter().map(|&a| weight(a)).sum();
    let hit: f64 = poisoned.iter().map(|&a| weight(a)).sum();
    (poisoned.len() as f64 / honest.len() as f64, if total > 0.0 { hit / total } else { 0.0 })
}

/// Network-wide verification-cache statistics: `(calls, hits)` summed
/// over the per-shard [`pvr_bgp::VerifyCache`]s, or zeros in plain mode.
pub fn verification_stats(net: &BgpNetwork) -> (u64, u64) {
    net.verify_caches().iter().fold((0, 0), |(calls, hits), c| (calls + c.calls(), hits + c.hits()))
}

/// Sums security rejections (attestation + origin failures) across all
/// honest routers and returns `(count, earliest rejection time)`.
pub fn substrate_rejections(net: &BgpNetwork, attacker: Asn) -> (usize, Option<SimTime>) {
    let mut count = 0usize;
    let mut first: Option<SimTime> = None;
    for asn in net.ases() {
        if asn == attacker {
            continue;
        }
        let router = net.router(asn);
        let stats = router.stats();
        count += (stats.attestation_failures + stats.origin_failures) as usize;
        if let Some(t) = router.first_security_reject() {
            first = Some(first.map_or(t, |f| f.min(t)));
        }
    }
    (count, first)
}
