//! E15 — the observability layer end-to-end: converges the
//! `internet_like` ladder (56 → `--scale` ASes, at most 1000) under
//! `plain`/`signed` with the telemetry layer on (`pvr` shares the
//! signed substrate, as in E13/E14), prints per-run telemetry
//! summaries and the largest scale's convergence-timeline tables, runs
//! the quick attack campaign to populate the per-strategy
//! detection-latency histograms, and reports the merged snapshot (JSON
//! and, behind `--metrics-out`, Prometheus text), the signed run's
//! timeline and, behind `--trace-out`, its JSONL event trace. Every
//! printed number is sim-time-derived and deterministic; across shard
//! counts every run's snapshot, timeline and trace must be identical
//! except the verify-cache hit columns/series (the workspace-wide
//! carve-out) — plain and signed alike, or the run fails.

use crate::recipe::{converged, e14_params, ladder, row};
use crate::{across_shards, report_struct, Cfg, Report};
use pvr_attack::{Campaign, CampaignConfig};
use pvr_bgp::{internet_like, InstantiateOptions};
use pvr_netsim::SimDuration;
use pvr_obs::{ConvergenceTimeline, Snapshot, Value};

/// E15's timeline window width, sim-time milliseconds: half the
/// default 10 ms link latency, so propagation rounds land in distinct
/// windows.
const E15_WINDOW_MS: u64 = 5;
/// E15's per-router event-journal ring capacity (most recent events).
const E15_JOURNAL_CAP: usize = 64;
/// E15 never converges past this many ASes regardless of `--scale`:
/// its journals and timelines are operator-inspection artifacts, not a
/// stress test (e14 covers internet scale).
const E15_MAX_SCALE: usize = 1000;

report_struct! {
    /// The telemetry of one converged run — what must not depend on
    /// the shard count.
    struct E15Run {
        mode: &'static str,
        /// `verify_cache_hit*` series excepted.
        snapshot: Snapshot,
        /// `verify_cache_hits` excepted.
        timeline: ConvergenceTimeline,
        /// Per-router event journals merged into one JSONL trace;
        /// journals record verify *calls*, never cache hits.
        trace: String,
    }
}

pub fn run(cfg: &Cfg) -> Report {
    let max_scale = cfg.scale.min(E15_MAX_SCALE);
    let shard_counts = cfg.shard_counts();
    let first_shards = shard_counts[0];

    let mut out = String::new();
    row!(out, "E15: deterministic telemetry — timelines and metrics (max scale {max_scale})");
    row!(out, "(every timestamp is simulator virtual time, {E15_WINDOW_MS} ms windows; the");
    row!(out, " verify-cache hit columns/series are the engine-local carve-out, all other");
    row!(out, " telemetry is identical at every shard count; pvr shares the signed");
    row!(out, " substrate — import-path telemetry is the signed run's)");
    row!(
        out,
        "{:>6} {:<7} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "scale",
        "mode",
        "shards",
        "windows",
        "events",
        "rib-churn",
        "verifies",
        "trace-lines"
    );

    // The largest scale's runs at the first shard count feed the
    // artifacts; the pvr row shares the signed substrate: same
    // counters, re-labelled.
    let mut selected: Vec<E15Run> = Vec::new();
    let mut pvr_snapshot = Snapshot::default();
    let mut engine_checks: Vec<String> = Vec::new();
    for scale in ladder(&[56], max_scale) {
        let topology = internet_like(e14_params(scale), 14);
        let mut per_count = across_shards(&format!("e15 scale {scale}"), &shard_counts, |shards| {
            Vec::from([("plain", false), ("signed", true)].map(|(mode, signed)| {
                let options = InstantiateOptions {
                    seed: 14,
                    signed,
                    key_bits: 512,
                    timeline_window: Some(SimDuration::from_millis(E15_WINDOW_MS)),
                    journal_capacity: E15_JOURNAL_CAP,
                    ..Default::default()
                };
                let what = format!("e15 scale {scale} {mode}");
                let (net, _) = converged(&what, &topology, options, shards);
                let run = E15Run {
                    mode,
                    snapshot: net.metrics_snapshot(mode),
                    timeline: net.convergence_timeline().expect("timeline enabled"),
                    trace: net.trace_jsonl(),
                };
                if signed && shards == first_shards {
                    pvr_snapshot = net.metrics_snapshot("pvr");
                }
                let sum = |f: fn(&pvr_obs::TimelineWindow) -> u64| -> u64 {
                    run.timeline.windows.iter().map(f).sum()
                };
                row!(
                    out,
                    "{:>6} {:<7} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12}",
                    scale,
                    mode,
                    shards,
                    run.timeline.windows.len(),
                    sum(|w| w.events),
                    sum(|w| w.rib_churn),
                    sum(|w| w.verify_calls),
                    run.trace.lines().count()
                );
                run
            }))
        });
        for shards in &shard_counts[1..] {
            engine_checks.push(format!(
                "scale {scale} signed: shards {shards} telemetry == shards \
                 {first_shards} (modulo cache-hit carve-out): true"
            ));
        }
        selected = per_count.swap_remove(0);
    }

    let mut combined = Snapshot::default();
    for run in &selected {
        combined.merge(&run.snapshot);
    }
    combined.merge(&pvr_snapshot);
    // Per-strategy detection latency, read straight off the campaign's
    // histogram export (sim-time microseconds).
    let report = Campaign::new(CampaignConfig::quick(15)).run();
    let mut detect_reg = pvr_obs::MetricsRegistry::new();
    report.export_detection_latency(&mut detect_reg);
    let detect_snap = detect_reg.snapshot();
    row!(out, "\nin-band detection latency (sim-time, from the seed-15 quick campaign):");
    for s in &detect_snap.series {
        if let Value::Histogram(h) = &s.value {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            row!(
                out,
                "  {} {{{}}}: n={}, mean={} µs",
                s.name,
                labels.join(","),
                h.count(),
                h.sum() / h.count().max(1)
            );
        }
    }
    combined.merge(&detect_snap);

    for run in &selected {
        row!(
            out,
            "\nconvergence timeline — scale {max_scale}, {}, shards {first_shards}:",
            run.mode
        );
        out.push_str(&run.timeline.render_table());
    }
    for line in &engine_checks {
        row!(out, "{line}");
    }
    row!(out, "(expected: signed runs verify on import so their verifies column is busy");
    row!(out, " while plain stays 0; churn concentrates in the first propagation rounds;");
    row!(out, " detection latency ≈ one 10 ms hop — the first honest neighbor rejects)");

    // The telemetry layer must actually have recorded, at any scale.
    for name in [
        "pvr_sim_events_total",
        "pvr_router_updates_rx_total",
        "pvr_router_best_changes_total",
        "pvr_router_verify_calls_total",
    ] {
        assert!(combined.counter_value(name).is_some_and(|v| v > 0), "e15 {name} missing or zero");
    }
    let detected = |s: &pvr_obs::Series| {
        s.name == "pvr_attack_detection_latency_us"
            && matches!(&s.value, Value::Histogram(h) if h.count() > 0)
    };
    assert!(combined.series.iter().any(detected), "e15 has no populated detection histogram");
    let signed = selected.pop().expect("signed run selected");
    assert!(signed.timeline.windows.iter().any(|w| w.events > 0), "e15 timeline has no events");
    assert!(signed.timeline.windows.iter().any(|w| w.rib_churn > 0), "e15 timeline has no churn");

    let prometheus = pvr_obs::expo::to_prometheus(&combined);
    Report {
        table: out,
        metrics: vec![("metrics", Box::new(combined)), ("timeline", Box::new(signed.timeline))],
        artifacts: vec![
            (cfg.metrics_out.clone(), prometheus),
            (cfg.trace_out.clone(), signed.trace),
        ],
    }
}
