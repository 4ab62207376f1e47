//! E8 — §1/§3.8: PVR on an Internet-like topology: substrate overhead
//! with and without signatures, plus per-decision PVR costs.

use crate::recipe::row;
use crate::{Cfg, Report};
use pvr_bgp::{internet_like, InstantiateOptions, InternetParams};
use pvr_core::{run_min_round, Figure1Bed};
use pvr_netsim::RunLimits;

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E8: Internet-like topology overhead (§3.8)");
    let params = InternetParams {
        tier1: 3,
        tier2: 8,
        stubs: 20,
        t2_peering_prob: 0.25,
        ..InternetParams::default()
    };
    let topology = internet_like(params, 11);
    row!(out, "topology: {} ASes, {} edges", topology.as_count(), topology.edge_count());
    row!(
        out,
        "{:<10} {:>10} {:>10} {:>14} {:>14}",
        "mode",
        "events",
        "updates",
        "bytes",
        "bytes/update"
    );
    let mut plain_per_update = 0f64;
    for signed in [false, true] {
        let mut net = topology.instantiate(InstantiateOptions {
            seed: 11,
            signed,
            key_bits: 512,
            ..Default::default()
        });
        net.converge(RunLimits::none());
        let stats = net.sim.stats();
        let per_update = stats.bytes_sent as f64 / stats.delivered.max(1) as f64;
        if !signed {
            plain_per_update = per_update;
        }
        row!(
            out,
            "{:<10} {:>10} {:>10} {:>14} {:>14.0}",
            if signed { "S-BGP" } else { "plain" },
            stats.events,
            stats.delivered,
            stats.bytes_sent,
            per_update
        );
        if signed {
            row!(
                out,
                "attestation overhead: {:.1}× bytes per update",
                per_update / plain_per_update
            );
        }
    }

    // Per-decision PVR round cost at k = 4 providers.
    let bed = Figure1Bed::build(&[2, 3, 4, 5], 11);
    let report = run_min_round(&bed, None);
    let total: usize = report.transcripts.values().map(|t| t.total_bytes()).sum();
    row!(out, "PVR round (k=4): {} bytes of roots+gossip+disclosures per decision", total);
    out.into()
}
