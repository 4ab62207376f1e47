//! The campaign runner: every strategy × security mode on one
//! attacker/victim placement, executed on the parallel sweep and scored
//! into a detection/impact matrix.

use crate::cell::CellContext;
use crate::metrics::AttackOutcome;
use crate::strategy::{catalog, AttackKind, AttackStrategy, SecurityMode};
use crate::sweep::{default_parallelism, sweep};
use pvr_bgp::{internet_like, Asn, InternetParams, Prefix, Role, Topology};
use pvr_crypto::drbg::HmacDrbg;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Bucket bounds for the detection-latency histogram, sim-time
/// microseconds. The default 10 ms link latency puts in-band
/// detections between one hop (~10 ms) and a few propagation rounds,
/// so the ladder spans 1 ms to 1 s.
pub const DETECTION_LATENCY_BUCKETS_US: &[u64] =
    &[1_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000];

/// The topology every campaign runs on: a small Internet, so every
/// matrix row is exercised in seconds.
pub const CAMPAIGN_INTERNET: InternetParams = InternetParams {
    tier1: 2,
    tier2: 4,
    stubs: 6,
    t2_peering_prob: 0.3,
    originating_stubs: usize::MAX,
};

/// Campaign-wide configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign seed: drives topology, placement, and per-cell seeds.
    pub seed: u64,
    /// Security modes to sweep (escalation order recommended).
    pub modes: Vec<SecurityMode>,
    /// Worker threads for the sweep; 0 = machine parallelism.
    pub parallelism: usize,
}

impl CampaignConfig {
    /// All modes at machine parallelism — every matrix row exercised.
    pub fn quick(seed: u64) -> CampaignConfig {
        CampaignConfig { seed, modes: SecurityMode::ALL.to_vec(), parallelism: 0 }
    }
}

/// One attacker/victim pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The malicious AS.
    pub attacker: Asn,
    /// The AS whose prefix is attacked.
    pub victim: Asn,
    /// The victim's originated prefix.
    pub victim_prefix: Prefix,
}

/// One scored cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Strategy row name.
    pub strategy: String,
    /// Strategy family.
    pub kind: AttackKind,
    /// Security mode the cell ran under.
    pub mode: SecurityMode,
    /// Impact and detection scores.
    pub outcome: AttackOutcome,
}

/// All cells of a finished campaign, in deterministic cell order.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Scored cells: strategy-major, then mode.
    pub cells: Vec<CellResult>,
}

/// A configured campaign, ready to run.
pub struct Campaign {
    config: CampaignConfig,
    topology: Arc<Topology>,
    /// Customer-cone sizes, computed once and shared with every cell.
    cones: Arc<BTreeMap<Asn, usize>>,
    placement: Placement,
    strategies: Vec<Box<dyn AttackStrategy>>,
}

/// True when `role` (the role `other` plays relative to some AS) marks
/// `other` as sitting uphill (provider or peer).
fn is_provider_or_peer(role: &Role) -> bool {
    matches!(role, Role::Provider | Role::Peer)
}

/// Deterministically chooses the attacker/victim pair. The victim is
/// an originating AS (a stub). The attacker must (1) not be the victim,
/// (2) have at least two uphill neighbors so a route leak has a valley
/// to form, (3) have at least one provider (so hijacks reach a
/// customer-preferring audience), and (4) not be adjacent to the victim
/// (a direct neighbor's "shortcut" would be a legitimate route, not an
/// attack). Preference is given to attackers sharing no neighbor with
/// the victim.
pub fn choose_placement(topology: &Topology, seed: u64) -> Placement {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "pvr-attack placements");
    let victims: Vec<Asn> =
        topology.ases().filter(|&a| !topology.originated_by(a).is_empty()).collect();
    assert!(!victims.is_empty(), "topology has no originating ASes to victimize");
    // Bounded retry: a victim with no eligible attacker is redrawn, and
    // only genuine exhaustion of the victim space trips the panic.
    for _ in 0..1000 {
        let victim = victims[rng.below(victims.len() as u64) as usize];
        let victim_prefix = topology.originated_by(victim)[0];
        let victim_neighbors: BTreeSet<Asn> =
            topology.neighbor_roles(victim).into_iter().map(|(n, _)| n).collect();
        let eligible: Vec<Asn> = topology
            .ases()
            .filter(|&a| {
                if a == victim || victim_neighbors.contains(&a) {
                    return false;
                }
                let roles = topology.neighbor_roles(a);
                let uphill = roles.iter().filter(|(_, r)| is_provider_or_peer(r)).count();
                let providers = roles.iter().filter(|(_, r)| matches!(r, Role::Provider)).count();
                uphill >= 2 && providers >= 1
            })
            .collect();
        if eligible.is_empty() {
            continue;
        }
        // Prefer attackers whose neighborhood is disjoint from the
        // victim's (cleaner poisoning signal).
        let disjoint: Vec<Asn> = eligible
            .iter()
            .copied()
            .filter(|&a| {
                topology.neighbor_roles(a).iter().all(|(n, _)| !victim_neighbors.contains(n))
            })
            .collect();
        let pool = if disjoint.is_empty() { &eligible } else { &disjoint };
        let attacker = pool[rng.below(pool.len() as u64) as usize];
        return Placement { attacker, victim, victim_prefix };
    }
    panic!("no victim with an eligible attacker in 1000 draws");
}

impl Campaign {
    /// Builds the campaign: generates the topology and chooses the
    /// placement deterministically from the configured seed.
    pub fn new(config: CampaignConfig) -> Campaign {
        let topology = internet_like(CAMPAIGN_INTERNET, config.seed);
        let placement = choose_placement(&topology, config.seed);
        let cones = Arc::new(topology.customer_cone_sizes());
        Campaign { config, topology: Arc::new(topology), cones, placement, strategies: catalog() }
    }

    /// The chosen attacker/victim pair.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Total number of cells a run will score.
    pub fn cell_count(&self) -> usize {
        self.strategies.len() * self.config.modes.len()
    }

    /// Runs every cell on the parallel sweep. The report is
    /// byte-identical for any `parallelism`, including 1.
    pub fn run(&self) -> CampaignReport {
        let threads = if self.config.parallelism == 0 {
            default_parallelism()
        } else {
            self.config.parallelism
        };
        // Cell `i` is strategy `i / modes`, mode `i % modes`.
        let modes = self.config.modes.len();
        let cells = sweep(self.cell_count(), threads, |i| self.run_cell(i, i / modes, i % modes));
        CampaignReport { cells }
    }

    fn run_cell(&self, index: usize, s: usize, m: usize) -> CellResult {
        let strategy = &self.strategies[s];
        let mode = self.config.modes[m];
        // One derived seed per cell: a function of (campaign seed, cell
        // index) only, so results cannot depend on scheduling.
        let cell_seed =
            HmacDrbg::from_u64_labeled(self.config.seed, &format!("pvr-attack cell {index}")).u64();
        let ctx = CellContext {
            topology: Arc::clone(&self.topology),
            cones: Arc::clone(&self.cones),
            attacker: self.placement.attacker,
            victim: self.placement.victim,
            victim_prefix: self.placement.victim_prefix,
            mode,
            seed: cell_seed,
        };
        CellResult {
            strategy: strategy.name().to_string(),
            kind: strategy.kind(),
            mode,
            outcome: strategy.execute(&ctx),
        }
    }
}

impl CampaignReport {
    /// Cells of the given family under the given mode.
    fn select(&self, kinds: &[AttackKind], mode: SecurityMode) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| c.mode == mode && kinds.contains(&c.kind)).collect()
    }

    /// Minimum poisoned fraction across cells of the given kinds/mode.
    /// Returns 0.0 when no cell matches, so `min_poisoned(..) > 0`
    /// assertions cannot pass vacuously on an empty selection.
    pub fn min_poisoned(&self, kinds: &[AttackKind], mode: SecurityMode) -> f64 {
        let cells = self.select(kinds, mode);
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().map(|c| c.outcome.poisoned_fraction).fold(f64::INFINITY, f64::min)
    }

    /// Fraction of cells of the given kinds/mode whose attack was
    /// detected.
    pub fn detection_rate(&self, kinds: &[AttackKind], mode: SecurityMode) -> f64 {
        let cells = self.select(kinds, mode);
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().filter(|c| c.outcome.detected).count() as f64 / cells.len() as f64
    }

    /// Network-wide chain-verification statistics summed over the
    /// cells of `mode`: `(verify_calls, cache_hits)`. The E13 hit-rate
    /// source; not part of the rendered matrix (whose bytes are pinned
    /// by the determinism tests).
    pub fn verification_totals(&self, mode: SecurityMode) -> (u64, u64) {
        self.cells.iter().filter(|c| c.mode == mode).fold((0, 0), |(calls, hits), cell| {
            (calls + cell.outcome.verify_calls, hits + cell.outcome.verify_cache_hits)
        })
    }

    /// Per-strategy detection-latency histograms: every in-band
    /// detection (`detection_time` is `Some`) lands one observation, in
    /// sim-time microseconds, in the `pvr_attack_detection_latency_us`
    /// histogram labelled `strategy`/`security_mode`. Post-hoc audits
    /// and PVR round verdicts carry no in-band time and add nothing.
    pub fn export_detection_latency(&self) -> pvr_obs::Snapshot {
        let mut snapshot = pvr_obs::Snapshot::default();
        for cell in &self.cells {
            let Some(t) = cell.outcome.detection_time else { continue };
            let labels: pvr_obs::LabelSet = vec![
                ("strategy", cell.strategy.clone()),
                ("security_mode", cell.mode.label().to_string()),
            ];
            let mut latency = pvr_obs::Histogram::new(DETECTION_LATENCY_BUCKETS_US);
            latency.observe(t.as_micros());
            snapshot.add(
                "pvr_attack_detection_latency_us",
                &labels,
                pvr_obs::Value::Histogram(latency),
            );
        }
        snapshot
    }

    /// The detection/impact matrix: one row per strategy, one column
    /// group per mode.
    pub fn render_matrix(&self) -> String {
        let mut modes: Vec<SecurityMode> = Vec::new();
        let mut rows: Vec<(String, AttackKind)> = Vec::new();
        for c in &self.cells {
            if !modes.contains(&c.mode) {
                modes.push(c.mode);
            }
            if !rows.iter().any(|(s, _)| *s == c.strategy) {
                rows.push((c.strategy.clone(), c.kind));
            }
        }
        let mut out = String::new();
        write!(out, "{:<22} {:<12}", "strategy", "family").unwrap();
        for m in &modes {
            write!(out, " | {:^16}", m.label()).unwrap();
        }
        writeln!(out).unwrap();
        write!(out, "{:<22} {:<12}", "", "").unwrap();
        for _ in &modes {
            write!(out, " | {:>7} {:>8}", "poison", "detect").unwrap();
        }
        writeln!(out).unwrap();
        for (strategy, kind) in &rows {
            write!(out, "{:<22} {:<12}", strategy, kind.label()).unwrap();
            for &m in &modes {
                let cell = self.cells.iter().find(|c| c.mode == m && &c.strategy == strategy);
                let (poison, det) = match cell.map(|c| &c.outcome) {
                    None => (0.0, "-"),
                    Some(o) if !o.detected => (o.poisoned_fraction, "no"),
                    Some(o) if o.blocked => (o.poisoned_fraction, "blocked"),
                    Some(o) => (o.poisoned_fraction, "yes"),
                };
                write!(out, " | {:>6.1}% {:>8}", poison * 100.0, det).unwrap();
            }
            writeln!(out).unwrap();
        }
        out
    }
}
