//! One campaign cell: a (strategy, placement, security mode) triple and
//! the machinery to execute it.

use crate::gossip::leak_gossip_audit;
use crate::metrics::{
    poisoning_scores, substrate_rejections, verification_stats, via_attacker, AttackOutcome,
};
use crate::strategy::SecurityMode;
use pvr_bgp::{Asn, BgpNetwork, InstantiateOptions, Prefix, Topology};
use pvr_core::{run_min_round, Figure1Bed, Misbehavior};
use pvr_crypto::drbg::HmacDrbg;
use pvr_netsim::{RunLimits, StopReason};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Event budget per simulation phase: a leaked or forged route can in
/// principle create a dispute wheel, and a diverging cell must yield a
/// scored (if degenerate) result instead of hanging the sweep.
const CELL_EVENT_BUDGET: u64 = 2_000_000;

/// RSA modulus size for signed modes (small keys keep CI fast).
const CELL_KEY_BITS: usize = 512;

/// A post-convergence injection hook: forged announcements that need a
/// settled network (e.g. a genuine chain to truncate) fire through one
/// of these after the first convergence pass.
pub type InjectHook<'a> = &'a dyn Fn(&mut BgpNetwork, &CellContext);

/// Everything one cell needs to execute, self-contained so cells can
/// run on any worker thread in any order.
#[derive(Clone)]
pub struct CellContext {
    /// The clean topology (pre-attack), shared across all cells.
    pub topology: Arc<Topology>,
    /// Customer-cone sizes, precomputed once per campaign (invariant
    /// across cells; recomputing per cell would be O(V·E) × cells).
    pub cones: Arc<BTreeMap<Asn, usize>>,
    /// The malicious AS.
    pub attacker: Asn,
    /// The AS whose prefix is under attack.
    pub victim: Asn,
    /// The victim's originated prefix.
    pub victim_prefix: Prefix,
    /// Security posture for this cell.
    pub mode: SecurityMode,
    /// Cell-local seed, derived from (campaign seed, cell index) so the
    /// result is independent of scheduling.
    pub seed: u64,
}

impl CellContext {
    fn limits() -> RunLimits {
        RunLimits { deadline: None, max_events: Some(CELL_EVENT_BUDGET) }
    }

    fn instantiate(&self, signed: bool) -> BgpNetwork {
        let mut net = self.topology.instantiate(InstantiateOptions {
            seed: self.seed,
            signed,
            key_bits: CELL_KEY_BITS,
            ..Default::default()
        });
        if signed {
            // Signed and Pvr modes deploy route-origin validation along
            // with path attestations.
            net.install_origin_table(Arc::new(self.topology.origin_table()));
        }
        net
    }

    /// Runs a routing-plane attack: `mount` arms the attacker before
    /// the network starts (originations, malice flags); `inject`, if
    /// given, fires after convergence (forged announcements that need a
    /// settled network to copy chains from) and the network is run
    /// again. Scores poisoning over `targets` against a clean baseline.
    pub fn run_topology_attack(
        &self,
        targets: &[Prefix],
        mount: impl FnOnce(&mut BgpNetwork, &CellContext),
        inject: Option<InjectHook<'_>>,
    ) -> AttackOutcome {
        // Clean baseline: which ASes legitimately route via the
        // attacker? (Plain instantiation — route selection is identical
        // across modes when nobody misbehaves, and it skips keygen.)
        let mut clean =
            self.topology.instantiate(InstantiateOptions { seed: self.seed, ..Default::default() });
        clean.converge(Self::limits());
        let baseline = via_attacker(&clean, self.attacker, &[self.victim_prefix]);
        drop(clean);

        // Attacked run.
        let signed = self.mode != SecurityMode::Plain;
        let mut net = self.instantiate(signed);
        mount(&mut net, self);
        // A cell that hits the event budget (a routing dispute wheel)
        // is scored from whatever state it reached — the budget exists
        // so one pathological cell cannot hang the sweep.
        let _stop: StopReason = net.converge(Self::limits());
        if let Some(inject) = inject {
            inject(&mut net, self);
            let _stop: StopReason = net.converge(Self::limits());
        }

        // Impact.
        let honest: BTreeSet<Asn> = net.ases().filter(|&a| a != self.attacker).collect();
        let poisoned: BTreeSet<Asn> =
            via_attacker(&net, self.attacker, targets).difference(&baseline).copied().collect();
        let (poisoned_fraction, cone_share) = poisoning_scores(&poisoned, &honest, &self.cones);

        // Detection.
        let (rejections, first_reject) =
            if signed { substrate_rejections(&net, self.attacker) } else { (0, None) };
        let leak_evidence = if self.mode == SecurityMode::Pvr {
            leak_gossip_audit(&net, self.attacker).len()
        } else {
            0
        };
        let evidence = rejections + leak_evidence;
        let (verify_calls, verify_cache_hits) = verification_stats(&net);
        AttackOutcome {
            poisoned_fraction,
            cone_share,
            detected: evidence > 0,
            evidence,
            detection_time: first_reject,
            blocked: rejections > 0 && poisoned.is_empty(),
            verify_calls,
            verify_cache_hits,
        }
    }

    /// Runs a PVR-round attack (promise or protocol misbehavior) on a
    /// Figure-1 bed derived from this cell's seed. Only the `Pvr` mode
    /// runs the verification round; under `Plain`/`Signed` there is no
    /// PVR machinery, so the violation goes unobserved by construction.
    pub fn run_pvr_round_attack(
        &self,
        make: impl FnOnce(&Figure1Bed) -> Misbehavior,
    ) -> AttackOutcome {
        if self.mode != SecurityMode::Pvr {
            return AttackOutcome::unobserved();
        }
        // Three providers; ns[0] holds the strict minimum so targeted
        // suppressions are genuine promise violations.
        let mut rng = HmacDrbg::from_u64_labeled(self.seed, "pvr-attack round-bed");
        let shortest = 1 + rng.below(2) as usize;
        let lens =
            [shortest, shortest + 1 + rng.below(3) as usize, shortest + 1 + rng.below(4) as usize];
        let bed = Figure1Bed::build(&lens, self.seed);
        let report = run_min_round(&bed, Some(make(&bed)));
        AttackOutcome {
            poisoned_fraction: 0.0,
            cone_share: 0.0,
            detected: report.detected(),
            evidence: report.verdicts.len(),
            detection_time: None,
            blocked: false,
            verify_calls: 0,
            verify_cache_hits: 0,
        }
    }
}
