//! E4 — §3.1: the strawman comparison. "even with only five players,
//! state-of-the-art SMC systems take about 15 seconds … for a simple
//! task like voting \[2\]".

use crate::recipe::row;
use crate::recipe::{fmt_time, median_secs};
use crate::{Cfg, Report};
use pvr_core::{run_min_round, Figure1Bed};
use pvr_crypto::drbg::HmacDrbg;
use pvr_smc::{majority_circuit, min_circuit, run_gmw, to_bits, SmcCostModel, ZkpCostModel};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E4: PVR vs. the SMC/ZKP strawmen (§3.1), k = 5 providers");

    // PVR: one full min-operator round (commit + all disclosures + all
    // verifications), measured.
    let bed = Figure1Bed::build(&[2, 3, 4, 5, 6], 4);
    let t_pvr = median_secs(5, || {
        let report = run_min_round(&bed, None);
        assert!(report.clean());
    });

    // GMW on the equivalent min circuit (8-bit lengths), measured
    // locally and modeled on a WAN.
    let circuit = min_circuit(5, 8);
    let inputs: Vec<Vec<bool>> = [2u64, 3, 4, 5, 6].iter().map(|&v| to_bits(v, 8)).collect();
    let mut rng = HmacDrbg::from_u64_labeled(4, "e4-gmw");
    let t_gmw_local = median_secs(5, || {
        let r = run_gmw(&circuit, &inputs, &mut rng);
        std::hint::black_box(r.outputs);
    });
    let gmw_stats = run_gmw(&circuit, &inputs, &mut rng).stats;
    let model = SmcCostModel::fairplay_calibrated();
    let t_gmw_wan = model.estimate_seconds(&gmw_stats);

    // FairplayMP calibration point: majority vote, 5 players.
    let vote = majority_circuit(5);
    let vote_inputs: Vec<Vec<bool>> = (0..5).map(|i| vec![i % 2 == 0]).collect();
    let vote_stats = run_gmw(&vote, &vote_inputs, &mut rng).stats;
    let t_vote_wan = model.estimate_seconds(&vote_stats);

    // Generic ZKP strawman over the min circuit.
    let zkp = ZkpCostModel::generic();
    let t_zkp = zkp.estimate_seconds(&circuit);

    row!(out, "{:<44} {:>12}", "PVR full round (measured)", fmt_time(t_pvr));
    row!(out, "{:<44} {:>12}", "GMW min-circuit, local compute (measured)", fmt_time(t_gmw_local));
    row!(
        out,
        "{:<44} {:>12}   ({} ANDs, {} rounds, {} OTs)",
        "GMW min-circuit, WAN model",
        fmt_time(t_gmw_wan),
        gmw_stats.and_gates,
        gmw_stats.rounds,
        gmw_stats.equivalent_ots
    );
    row!(
        out,
        "{:<44} {:>12}   (paper cites ≈15 s)",
        "FairplayMP calibration: 5-player voting",
        fmt_time(t_vote_wan)
    );
    row!(out, "{:<44} {:>12}", "generic ZKP model, min circuit", fmt_time(t_zkp));
    row!(
        out,
        "PVR vs SMC-on-WAN speedup: {:.0}×   (expected: ≥3 orders of magnitude)",
        t_gmw_wan / t_pvr
    );
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PVR beats modeled SMC by at least 100× on the k=5 task.
    #[test]
    fn e4_speedup_is_large() {
        let bed = Figure1Bed::build(&[2, 3, 4, 5, 6], 4);
        let t_pvr = median_secs(3, || {
            let _ = run_min_round(&bed, None);
        });
        let circuit = min_circuit(5, 8);
        let inputs: Vec<Vec<bool>> = [2u64, 3, 4, 5, 6].iter().map(|&v| to_bits(v, 8)).collect();
        let mut rng = HmacDrbg::from_u64_labeled(4, "e4-check");
        let stats = run_gmw(&circuit, &inputs, &mut rng).stats;
        let speedup = SmcCostModel::fairplay_calibrated().estimate_seconds(&stats) / t_pvr;
        assert!(speedup > 100.0, "PVR must beat modeled SMC by ≥100×, got {speedup:.0}×");
    }
}
