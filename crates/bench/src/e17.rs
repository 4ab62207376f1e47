//! E17 — private verification as a first-class network mode. The
//! `internet_like` ladder (1000 → `--scale` ASes) converges on the
//! signed substrate twice per shard count: once bare, once with the
//! batched-GMW [`pvr_bgp::PrivateVerifier`] enabled, which runs every
//! contested route selection (≥ 2 candidates in the winning
//! LOCAL_PREF tier) through bit-sliced min + majority circuits at
//! calendar-queue barriers and charges the FairplayMP-calibrated
//! latency back into sim-time. Reports the privacy overhead as
//! multipliers against the signed baseline — sim-time convergence,
//! events/sec — plus the SMC bill itself: bits broadcast, AND rounds,
//! batch occupancy, and the verdict tally (all passes on honest
//! topologies). Everything except the [`Wall`] fields is deterministic
//! and identical across shard counts — rows and the verifier's SMC
//! timeline alike, or the run fails ([`across_shards`]).

use crate::recipe::{converged, e14_params, ladder, row, smoke_shards};
use crate::{across_shards, report_struct, Cfg, Report, Wall};
use pvr_bgp::{internet_like, InstantiateOptions, SmcBatchStats};

report_struct! {
    /// One measured row of E17: a (scale, shard-count) pair converged
    /// twice on the signed substrate — once plain, once with private
    /// verification — so the privacy overhead is a like-for-like ratio
    /// on the same engine.
    pub struct E17Row {
        /// Requested AS-count scale.
        pub scale: usize,
        /// Shard count.
        pub shards: Wall<usize>,
        /// Batch width the verifier packed requests into (≤ 64 lanes).
        pub lane_cap: usize,
        /// Actual AS count of the generated topology.
        pub ases: usize,
        /// Signed-baseline convergence events.
        pub baseline_events: u64,
        /// Signed-baseline sim-time at quiescence, µs.
        pub baseline_sim_us: u64,
        /// Signed-baseline wall-clock.
        pub baseline_wall_secs: Wall<f64> => 4,
        /// Private-run convergence events — baseline plus the verdict
        /// timers the verifier schedules.
        pub private_events: u64,
        /// Private-run sim-time at quiescence, µs: the baseline plus the
        /// modeled SMC latency charged at barriers.
        pub private_sim_us: u64,
        /// Private-run wall-clock.
        pub private_wall_secs: Wall<f64> => 4,
        /// `private_sim_us / baseline_sim_us` — the privacy overhead in
        /// sim-time.
        pub sim_time_overhead: f64 => 4,
        /// `private_wall_secs / baseline_wall_secs`.
        pub wall_overhead: Wall<f64> => 4,
        /// `lanes_occupied / lane_slots`, percent.
        pub occupancy_pct: f64 => 2,
        /// The verifier's full SMC accounting.
        pub smc: SmcBatchStats,
    }
}

report_struct! {
    /// One shard count's pair of runs: the reported row and the
    /// verifier's SMC timeline behind it.
    struct E17Run {
        row: E17Row,
        smc_timeline: pvr_obs::TimelineRecorder,
    }
}

pub fn run(cfg: &Cfg) -> Report {
    let (max_scale, lane_cap) = (cfg.scale, cfg.smc_batch);
    let shard_counts = cfg.shard_counts();

    let mut out = String::new();
    row!(
        out,
        "E17: private verification as a network mode (max scale {max_scale}, lane cap {lane_cap})"
    );
    row!(out, "(signed substrate ± batched-GMW verification of contested selections; min +");
    row!(out, " majority circuits run bit-sliced at calendar barriers, latency charged from");
    row!(out, " the FairplayMP-calibrated model; all non-timing columns are sim-time");
    row!(out, " deterministic and identical at every shard count)");
    row!(
        out,
        "{:>6} {:<8} {:>6} {:>9} {:>10} {:>10} {:>9} {:>8} {:>6} {:>13} {:>9}",
        "scale",
        "mode",
        "shards",
        "events",
        "events/s",
        "sim-ms",
        "requests",
        "batches",
        "occ%",
        "bits-bcast",
        "verdicts"
    );

    let mut rows: Vec<E17Row> = Vec::new();
    for scale in ladder(&[1000], max_scale) {
        let topology = internet_like(e14_params(scale), 17);
        let runs = across_shards(&format!("e17 scale {scale}"), &shard_counts, |shards| {
            // (events, sim-time µs, wall-clock) of the signed baseline.
            let mut baseline = (0u64, 0u64, 0f64);
            let mut run = None;
            for private in [false, true] {
                let options = InstantiateOptions {
                    seed: 17,
                    signed: true,
                    key_bits: 512,
                    private_verification: private,
                    smc_lane_cap: lane_cap,
                    ..Default::default()
                };
                let what = format!("e17 scale {scale} private={private}");
                let (net, wall) = converged(&what, &topology, options, shards);
                let events = net.sim.stats().events;
                let sim_us = net.sim.now().as_micros();
                let mut smc_columns: [String; 5] = std::array::from_fn(|_| "-".to_string());
                if private {
                    let verifier = net.private_verifier().expect("private verifier wired");
                    let smc = verifier.stats();
                    let row = E17Row {
                        scale,
                        shards: Wall(shards),
                        lane_cap,
                        ases: topology.as_count(),
                        baseline_events: baseline.0,
                        baseline_sim_us: baseline.1,
                        baseline_wall_secs: Wall(baseline.2),
                        private_events: events,
                        private_sim_us: sim_us,
                        private_wall_secs: Wall(wall),
                        sim_time_overhead: sim_us as f64 / baseline.1.max(1) as f64,
                        wall_overhead: Wall(wall / baseline.2.max(1e-9)),
                        occupancy_pct: 100.0 * smc.lanes_occupied as f64
                            / smc.lane_slots.max(1) as f64,
                        smc,
                    };
                    assert_live(&row);
                    let s = &row.smc;
                    smc_columns = [
                        s.requests.to_string(),
                        s.batches.to_string(),
                        format!("{:.1}", row.occupancy_pct),
                        s.bits_broadcast.to_string(),
                        format!("{}+{}", s.verdict_pass, s.verdict_fail),
                    ];
                    run = Some(E17Run { row, smc_timeline: verifier.timeline() });
                } else {
                    baseline = (events, sim_us, wall);
                }
                let [requests, batches, occ, bits, verdicts] = smc_columns;
                row!(
                    out,
                    "{:>6} {:<8} {:>6} {:>9} {:>10.0} {:>10.1} {:>9} {:>8} {:>6} {:>13} {:>9}",
                    scale,
                    if private { "private" } else { "signed" },
                    shards,
                    events,
                    events as f64 / wall.max(1e-9),
                    sim_us as f64 / 1e3,
                    requests,
                    batches,
                    occ,
                    bits,
                    verdicts
                );
            }
            let run = run.expect("private run recorded");
            let r = &run.row;
            row!(
                out,
                "       overhead vs signed: sim-time {:.2}x, events {:.2}x, wall {:.2}x \
                 (modeled SMC {:.1} s over {} rounds)",
                r.sim_time_overhead,
                r.private_events as f64 / r.baseline_events.max(1) as f64,
                r.wall_overhead.0,
                r.smc.modeled_micros as f64 / 1e6,
                r.smc.rounds_charged
            );
            run
        });
        rows.extend(runs.into_iter().map(|run| run.row));
    }
    row!(out, "(expected: every verdict passes — honest routers always pick a tier-minimal");
    row!(out, " path; occupancy rises with topology contention; sim-time overhead is the");
    row!(out, " paper's trade made concrete — full SMC on every contested selection costs");
    row!(out, " seconds of modeled WAN latency where PVR's commitments cost milliseconds)");
    if cfg.quick {
        smoke_shards("e17", rows.iter().map(|r| r.shards.0));
    }
    Report { table: out, metrics: vec![("metrics", Box::new(rows))], artifacts: Vec::new() }
}

/// Private verification must actually have run SMC, at any scale: a
/// live bill, every verdict delivered and passing, occupancy in
/// (0, 100], sim-time and events strictly above the signed baseline.
fn assert_live(r: &E17Row) {
    let at = format!("e17 {}/s{}", r.scale, r.shards.0);
    let s = &r.smc;
    assert_eq!(s.verdict_fail, 0, "{at}: honest selections must all verify");
    assert_eq!(s.verdicts_delivered, s.requests, "{at}: all verdicts delivered");
    for (name, v) in s.fields() {
        assert!(v > 0 || name == "verdict_fail", "{at}: zero smc.{name}");
    }
    assert!(0.0 < r.occupancy_pct && r.occupancy_pct <= 100.0, "{at}: occupancy {r:?}");
    assert!(r.sim_time_overhead > 1.0, "{at}: privacy charged no sim-time");
    assert!(r.private_events > r.baseline_events, "{at}: verdict timers added no events");
}
