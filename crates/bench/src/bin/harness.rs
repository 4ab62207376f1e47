//! The experiment harness: regenerates every experiment table (see the
//! doc comments on `pvr_bench`'s `eN` functions for the figure/section
//! each one reproduces).
//!
//! Usage:
//!   cargo run --release -p pvr-bench --bin harness             # all
//!   cargo run --release -p pvr-bench --bin harness e3 e4       # subset
//!   cargo run --release -p pvr-bench --bin harness -- --quick  # CI smoke
//!   cargo run --release -p pvr-bench --bin harness -- --json   # machine-readable
//!   cargo run --release -p pvr-bench --bin harness -- --scale 5000 e14
//!   cargo run --release -p pvr-bench --bin harness -- --shards 1,4 e14
//!   cargo run --release -p pvr-bench --bin harness -- --metrics-out m.prom e15
//!   cargo run --release -p pvr-bench --bin harness -- --churn 128 e16
//!   cargo run --release -p pvr-bench --bin harness -- --smc-batch 8 e17
//!   cargo run --release -p pvr-bench --bin harness -- --checkpoint-dir ckpts e18
//!   cargo run --release -p pvr-bench --bin harness -- --restore ckpts/s1/ckpt-00000050.pvr e18
//!
//! `--scale N` sets the largest AS count the scale experiments (e14,
//! e15, e16, e17, e18) converge: default 5000, or 500 under `--quick`
//! so CI smoke stays within budget. E15 and e18 additionally cap their
//! ladders at 1000 ASes — their artifacts are meant for operator
//! inspection, not internet-scale stress.
//!
//! `--shards LIST` (comma-separated, e.g. `--shards 1,2,4`) selects the
//! shard count(s) e14, e15, e16, e17, and e18 run at: the one engine
//! with that many worker calendars (1 = inline dispatch, no threads).
//! Defaults to `1`, or `1,2` under `--quick` so CI smoke covers the
//! threaded path too. Deterministic e14/e15/e16/e17/e18 fields are
//! identical at every shard count; the CI determinism job diffs them.
//!
//! `--checkpoint-every MS` sets e18's checkpoint cadence in sim-time
//! milliseconds (default 10); `--checkpoint-dir DIR` keeps e18's
//! checkpoint files under DIR (per-shard-count subdirectories `s<N>/`)
//! instead of a deleted temp directory; `--restore FILE` adds e18's
//! operator drill — restore FILE (at the shard count recorded in it)
//! and replay it to quiescence. All three require e18 to be selected and are validated
//! up front (exit 2).
//!
//! `--smc-batch N` sets e17's GMW batch width (lanes per word, 1–64;
//! default 64). Requires e17 to be selected.
//!
//! `--churn N` sets e16's continuous-churn event count (default 64);
//! `--fault-seed N` seeds its fault plan, degradation edge choice, and
//! deployment sweep (default 16). Both require e16 to be selected —
//! like every flag, they are validated up front (exit 2) before any
//! experiment burns CPU.
//!
//! `--metrics-out FILE` writes e15's Prometheus text exposition to
//! FILE; `--trace-out FILE` writes its JSONL event trace. Both require
//! e15 to be selected and their directory to exist (checked up front,
//! before any experiment runs).
//!
//! `--json` replaces the human tables with one JSON document on stdout:
//! `{schema, quick, experiments: [{id, wall_secs, rows}], total_wall_secs}`
//! — the format CI archives as the `BENCH_*.json` perf trajectory. The
//! e14 record additionally carries a `metrics` array with one object
//! per (scale, shards, mode) cell: `{scale, mode, shards, ases, edges,
//! origins, events, wall_secs, events_per_sec, peak_rib_entries,
//! bytes_on_wire, short_circuits, final_rib_sha256}`. The e15 record
//! carries a `metrics`
//! array (the pvr-obs JSON exposition of the merged snapshot) and a
//! `timeline` array (the signed run's convergence-timeline windows).
//! The e16 record carries a `metrics` object with the churn run's
//! settle-time percentiles, withdraw fan-out, dampening suppressions,
//! fault counts, and the degradation/deployment tables — all sim-time
//! deterministic. The e17 record carries a `metrics` array with one
//! object per (scale, shards) pair: the signed-baseline and private-run
//! events/sim-time/wall-clock, the sim-time privacy-overhead
//! multiplier, batch occupancy, and the verifier's full `smc` bill
//! (requests, batches, AND gates, rounds, triples, OTs, bits
//! broadcast, modeled latency, verdict tally). The e18 record carries
//! a `metrics` object with one row per shard count — convergence
//! events, snapshot/checkpoint counts, checkpoint bytes, the
//! kill-and-recover drill's replayed events and `recovered_identical`
//! verdict, and the converged RIB's SHA-256 — plus the hijack-bisect
//! forensic row. `ci/normalize_e14.py` strips the `verify_cache_hit*`
//! series/fields — the per-shard-cache carve-out — plus all wall-clock
//! fields and e18's shard-shaped checkpoint byte size, and diffs the
//! rest across shard counts.

/// One experiment: renders its table as a string.
type Runner = fn() -> String;

/// The subset `--quick` runs: the cheapest experiment per subsystem, so
/// a CI smoke pass exercises the harness end-to-end in seconds. E14
/// and e15 ride along at a reduced `--scale` (500 ASes): small enough
/// for CI, large enough that a propagation regression shows.
const QUICK: &[&str] = &["e1", "e2", "e5", "e12", "e13", "e14", "e15", "e16", "e17", "e18"];

/// Default largest AS count for e14 (overridable with `--scale`).
const DEFAULT_SCALE: usize = 5000;
/// E14/e15 scale under `--quick`.
const QUICK_SCALE: usize = 500;
/// E15 never converges past this many ASes regardless of `--scale`:
/// its journals and timelines are operator-inspection artifacts, not a
/// stress test (e14 covers internet scale).
const E15_MAX_SCALE: usize = 1000;
/// E14/e15 shard counts under `--quick`: one shard plus a two-shard
/// run, so CI smoke exercises worker threads and the merged exchange.
const QUICK_SHARDS: &[usize] = &[1, 2];
/// E16's default continuous-churn event count (`--churn` overrides).
const DEFAULT_CHURN: usize = 64;
/// E16's default fault seed (`--fault-seed` overrides).
const DEFAULT_FAULT_SEED: u64 = 16;
/// E17's default GMW batch width (`--smc-batch` overrides): the full
/// 64-lane word.
const DEFAULT_SMC_BATCH: usize = 64;
/// E18 never converges past this many ASes regardless of `--scale`:
/// its checkpoint/restore cycles are durability drills, not a stress
/// test (e14 covers internet scale).
const E18_MAX_SCALE: usize = 1000;

/// Validates an output-file flag up front: the file's directory must
/// exist before any experiment burns CPU.
fn validate_out_path(flag: &str, path: &str) {
    let parent = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    if !parent.is_dir() {
        eprintln!("error: {flag} directory `{}` does not exist", parent.display());
        std::process::exit(2);
    }
}

/// Minimal JSON string escaping (the tables are ASCII plus `µ`/`×`/`→`;
/// everything below 0x20 is control-escaped).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    // `--scale N` / `--shards LIST`: consume each flag and its value
    // before flag/id checks.
    let mut scale: Option<usize> = None;
    let mut shards: Option<Vec<usize>> = None;
    let mut churn: Option<usize> = None;
    let mut fault_seed: Option<u64> = None;
    let mut smc_batch: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--metrics-out" || a == "--trace-out" {
            let Some(path) = it.next().filter(|p| !p.starts_with("--") && !p.is_empty()) else {
                eprintln!("error: {a} needs a file path");
                std::process::exit(2);
            };
            validate_out_path(a, path);
            if a == "--metrics-out" {
                metrics_out = Some(path.clone());
            } else {
                trace_out = Some(path.clone());
            }
        } else if a == "--scale" {
            let v = it.next().and_then(|v| v.parse::<usize>().ok());
            match v {
                Some(n) if (56..=90_000).contains(&n) => scale = Some(n),
                _ => {
                    eprintln!("error: --scale needs an AS count between 56 and 90000");
                    std::process::exit(2);
                }
            }
        } else if a == "--churn" {
            let v = it.next().and_then(|v| v.parse::<usize>().ok());
            match v {
                Some(n) if (1..=100_000).contains(&n) => churn = Some(n),
                _ => {
                    eprintln!("error: --churn needs an event count between 1 and 100000");
                    std::process::exit(2);
                }
            }
        } else if a == "--smc-batch" {
            let v = it.next().and_then(|v| v.parse::<usize>().ok());
            match v {
                Some(n) if (1..=64).contains(&n) => smc_batch = Some(n),
                _ => {
                    eprintln!("error: --smc-batch needs a lane count between 1 and 64");
                    std::process::exit(2);
                }
            }
        } else if a == "--checkpoint-every" {
            let v = it.next().and_then(|v| v.parse::<u64>().ok());
            match v {
                Some(n) if (1..=60_000).contains(&n) => checkpoint_every = Some(n),
                _ => {
                    eprintln!(
                        "error: --checkpoint-every needs a sim-time cadence between \
                         1 and 60000 milliseconds"
                    );
                    std::process::exit(2);
                }
            }
        } else if a == "--checkpoint-dir" {
            let Some(path) = it.next().filter(|p| !p.starts_with("--") && !p.is_empty()) else {
                eprintln!("error: --checkpoint-dir needs a directory path");
                std::process::exit(2);
            };
            // The directory itself is created on demand; its parent
            // must already exist (same contract as the output files).
            let p = std::path::Path::new(path);
            if !p.is_dir() {
                validate_out_path(a, path);
            }
            checkpoint_dir = Some(path.clone());
        } else if a == "--restore" {
            let Some(path) = it.next().filter(|p| !p.starts_with("--") && !p.is_empty()) else {
                eprintln!("error: --restore needs a checkpoint file path");
                std::process::exit(2);
            };
            if !std::path::Path::new(path).is_file() {
                eprintln!("error: --restore checkpoint `{path}` does not exist");
                std::process::exit(2);
            }
            restore = Some(path.clone());
        } else if a == "--fault-seed" {
            let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                eprintln!("error: --fault-seed needs an unsigned integer");
                std::process::exit(2);
            };
            fault_seed = Some(v);
        } else if a == "--shards" {
            let parsed: Option<Vec<usize>> = it
                .next()
                .map(|v| v.split(',').map(|p| p.trim().parse::<usize>()).collect::<Result<_, _>>())
                .and_then(Result::ok);
            match parsed {
                Some(list) if !list.is_empty() && list.iter().all(|&n| (1..=64).contains(&n)) => {
                    shards = Some(list);
                }
                _ => {
                    eprintln!(
                        "error: --shards needs a comma-separated list of counts between 1 and 64"
                    );
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(a.clone());
        }
    }
    let args = rest;
    if let Some(flag) =
        args.iter().find(|a| a.starts_with("--") && *a != "--quick" && *a != "--json")
    {
        eprintln!(
            "error: unknown flag `{flag}` (flags: --quick, --json, --scale N, --shards LIST, \
             --churn N, --fault-seed N, --smc-batch N, --metrics-out FILE, --trace-out FILE, \
             --checkpoint-every MS, --checkpoint-dir DIR, --restore FILE)"
        );
        std::process::exit(2);
    }
    let explicit: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    if quick && !explicit.is_empty() {
        eprintln!("error: --quick cannot be combined with explicit experiment ids {explicit:?}");
        std::process::exit(2);
    }
    let wanted: Vec<&str> = if quick { QUICK.to_vec() } else { explicit };
    // --scale/--shards parameterize e14/e15/e16/e17/e18 only, --churn/
    // --fault-seed are e16 knobs, --smc-batch is an e17 knob,
    // --metrics-out/--trace-out are e15 artifacts, and
    // --checkpoint-every/--checkpoint-dir/--restore are e18 knobs;
    // silently ignoring them on a selection without those experiments
    // would contradict the strict flag validation above.
    let scale_exp = |w: &[&str]| {
        w.is_empty()
            || w.contains(&"e14")
            || w.contains(&"e15")
            || w.contains(&"e16")
            || w.contains(&"e17")
            || w.contains(&"e18")
    };
    if scale.is_some() && !scale_exp(&wanted) {
        eprintln!("error: --scale only applies to e14/e15/e16/e17/e18, none of which is selected");
        std::process::exit(2);
    }
    if shards.is_some() && !scale_exp(&wanted) {
        eprintln!("error: --shards only applies to e14/e15/e16/e17/e18, none of which is selected");
        std::process::exit(2);
    }
    if (checkpoint_every.is_some() || checkpoint_dir.is_some() || restore.is_some())
        && !wanted.is_empty()
        && !wanted.contains(&"e18")
    {
        eprintln!(
            "error: --checkpoint-every/--checkpoint-dir/--restore need e18, \
             which is not selected"
        );
        std::process::exit(2);
    }
    if (churn.is_some() || fault_seed.is_some()) && !wanted.is_empty() && !wanted.contains(&"e16") {
        eprintln!("error: --churn/--fault-seed need e16, which is not selected");
        std::process::exit(2);
    }
    if smc_batch.is_some() && !wanted.is_empty() && !wanted.contains(&"e17") {
        eprintln!("error: --smc-batch needs e17, which is not selected");
        std::process::exit(2);
    }
    if (metrics_out.is_some() || trace_out.is_some())
        && !wanted.is_empty()
        && !wanted.contains(&"e15")
    {
        eprintln!("error: --metrics-out/--trace-out need e15, which is not selected");
        std::process::exit(2);
    }
    let scale = scale.unwrap_or(if quick { QUICK_SCALE } else { DEFAULT_SCALE });
    let shards = shards.unwrap_or_else(|| if quick { QUICK_SHARDS.to_vec() } else { vec![1] });
    let churn = churn.unwrap_or(DEFAULT_CHURN);
    let fault_seed = fault_seed.unwrap_or(DEFAULT_FAULT_SEED);
    let smc_batch = smc_batch.unwrap_or(DEFAULT_SMC_BATCH);
    let checkpoint_every = checkpoint_every.unwrap_or(pvr_bench::E18_DEFAULT_EVERY_MS);

    if !json {
        println!("PVR reproduction — experiment harness");
        println!("paper: Gurney et al., HotNets-X 2011\n");
    }

    let runners: Vec<(&str, Runner)> = vec![
        // Unknown ids are rejected below so a typo'd CI invocation
        // cannot silently run nothing.
        ("e1", pvr_bench::e1_detection_matrix),
        ("e2", pvr_bench::e2_graph_navigation),
        ("e3", pvr_bench::e3_crypto_costs),
        ("e4", pvr_bench::e4_strawman_comparison),
        ("e5", pvr_bench::e5_batching),
        ("e6", pvr_bench::e6_mht_scaling),
        ("e7", pvr_bench::e7_confidentiality),
        ("e8", pvr_bench::e8_internet_overhead),
        ("e9", pvr_bench::e9_ring_scaling),
        ("e10", pvr_bench::e10_promise_ladder),
        ("e11", pvr_bench::e11_ablations),
        ("e12", pvr_bench::e12_attack_campaigns),
        ("e13", pvr_bench::e13_crypto_perf),
    ];

    let mut known: Vec<&str> = runners.iter().map(|&(id, _)| id).collect();
    known.push("e14");
    known.push("e15");
    known.push("e16");
    known.push("e17");
    known.push("e18");
    if let Some(bad) = wanted.iter().find(|w| !known.contains(w)) {
        eprintln!("error: unknown experiment id `{bad}` (known: {})", known.join(", "));
        std::process::exit(2);
    }

    let total = std::time::Instant::now();
    // (id, wall, table, extra): `extra` is a pre-rendered JSON fragment
    // appended inside the record's object — e14's per-cell metrics,
    // e15's metrics/timeline sections, empty for everything else.
    let mut records: Vec<(&str, f64, String, String)> = Vec::new();
    for (id, run) in runners {
        if !wanted.is_empty() && !wanted.contains(&id) {
            continue;
        }
        let t = std::time::Instant::now();
        let table = run();
        let wall = t.elapsed().as_secs_f64();
        if json {
            records.push((id, wall, table, String::new()));
        } else {
            println!("{table}");
            println!("[{id} completed in {wall:.2} s]\n{}", "=".repeat(72));
        }
    }
    // E14 and e15 run last and take the scale/shards parameters (every
    // other runner is a plain nullary table generator).
    if wanted.is_empty() || wanted.contains(&"e14") {
        let t = std::time::Instant::now();
        let (table, cells) = pvr_bench::e14_scale(scale, &shards);
        let wall = t.elapsed().as_secs_f64();
        if json {
            let mut extra = String::from(",\"metrics\":[");
            for (k, c) in cells.iter().enumerate() {
                if k > 0 {
                    extra.push(',');
                }
                extra.push_str(&format!(
                    "{{\"scale\":{},\"mode\":\"{}\",\"shards\":{},\"ases\":{},\"edges\":{},\"origins\":{},\"events\":{},\"wall_secs\":{:.4},\"events_per_sec\":{:.1},\"peak_rib_entries\":{},\"bytes_on_wire\":{},\"short_circuits\":{},\"final_rib_sha256\":\"{}\"}}",
                    c.scale,
                    c.mode,
                    c.shards,
                    c.ases,
                    c.edges,
                    c.origins,
                    c.events,
                    c.wall_secs,
                    c.events_per_sec,
                    c.peak_rib_entries,
                    c.bytes_on_wire,
                    c.short_circuits,
                    c.final_rib_sha256,
                ));
            }
            extra.push(']');
            records.push(("e14", wall, table, extra));
        } else {
            println!("{table}");
            println!("[e14 completed in {wall:.2} s]\n{}", "=".repeat(72));
        }
    }
    if wanted.is_empty() || wanted.contains(&"e15") {
        let t = std::time::Instant::now();
        let (table, artifacts) = pvr_bench::e15_observability(scale.min(E15_MAX_SCALE), &shards);
        let wall = t.elapsed().as_secs_f64();
        if let Some(path) = &metrics_out {
            if let Err(e) = std::fs::write(path, &artifacts.prometheus) {
                eprintln!("error: writing --metrics-out `{path}`: {e}");
                std::process::exit(2);
            }
        }
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, &artifacts.trace_jsonl) {
                eprintln!("error: writing --trace-out `{path}`: {e}");
                std::process::exit(2);
            }
        }
        if json {
            let extra = format!(
                ",\"metrics\":{},\"timeline\":{}",
                artifacts.metrics_json, artifacts.timeline_json
            );
            records.push(("e15", wall, table, extra));
        } else {
            println!("{table}");
            println!("[e15 completed in {wall:.2} s]\n{}", "=".repeat(72));
        }
    }
    if wanted.is_empty() || wanted.contains(&"e16") {
        let t = std::time::Instant::now();
        let (table, m) = pvr_bench::e16_churn(scale, &shards, churn, fault_seed);
        let wall = t.elapsed().as_secs_f64();
        if json {
            let degradation: Vec<String> = m
                .degradation
                .iter()
                .map(|&(pct, links, correct)| {
                    format!(
                        "{{\"flap_pct\":{pct},\"links_flapping\":{links},\
                         \"routes_correct_pct\":{correct:.3}}}"
                    )
                })
                .collect();
            let deployment: Vec<String> = m
                .deployment
                .iter()
                .map(|p| {
                    format!(
                        "{{\"fraction_pct\":{},\"protected\":{},\"attack_success_pct\":{:.3},\
                         \"fringe_interception_pct\":{:.3},\"origin_rejections\":{}}}",
                        p.fraction_pct,
                        p.protected,
                        p.attack_success_pct,
                        p.fringe_interception_pct,
                        p.origin_rejections
                    )
                })
                .collect();
            let extra = format!(
                ",\"metrics\":{{\"scale\":{},\"churn_events\":{},\"settle_p50_us\":{},\
                 \"settle_p99_us\":{},\"withdraws_sent\":{},\"withdraw_fanout\":{:.3},\
                 \"dampening_suppressed\":{},\"session_resets\":{},\"link_down\":{},\
                 \"degradation\":[{}],\"deployment\":[{}]}}",
                m.scale,
                m.churn_events,
                m.settle_p50_us,
                m.settle_p99_us,
                m.withdraws_sent,
                m.withdraw_fanout,
                m.dampening_suppressed,
                m.session_resets,
                m.link_down,
                degradation.join(","),
                deployment.join(","),
            );
            records.push(("e16", wall, table, extra));
        } else {
            println!("{table}");
            println!("[e16 completed in {wall:.2} s]\n{}", "=".repeat(72));
        }
    }
    if wanted.is_empty() || wanted.contains(&"e17") {
        let t = std::time::Instant::now();
        let (table, rows) = pvr_bench::e17_private_path(scale, &shards, smc_batch);
        let wall = t.elapsed().as_secs_f64();
        if json {
            let mut extra = String::from(",\"metrics\":[");
            for (k, r) in rows.iter().enumerate() {
                if k > 0 {
                    extra.push(',');
                }
                let smc: Vec<String> =
                    r.smc.fields().iter().map(|(name, v)| format!("\"{name}\":{v}")).collect();
                extra.push_str(&format!(
                    "{{\"scale\":{},\"shards\":{},\"lane_cap\":{},\"ases\":{},\
                     \"baseline_events\":{},\"baseline_sim_us\":{},\"baseline_wall_secs\":{:.4},\
                     \"private_events\":{},\"private_sim_us\":{},\"private_wall_secs\":{:.4},\
                     \"sim_time_overhead\":{:.4},\"wall_overhead\":{:.4},\
                     \"occupancy_pct\":{:.2},\"smc\":{{{}}}}}",
                    r.scale,
                    r.shards,
                    r.lane_cap,
                    r.ases,
                    r.baseline_events,
                    r.baseline_sim_us,
                    r.baseline_wall_secs,
                    r.private_events,
                    r.private_sim_us,
                    r.private_wall_secs,
                    r.sim_time_overhead,
                    r.wall_overhead,
                    r.occupancy_pct,
                    smc.join(","),
                ));
            }
            extra.push(']');
            records.push(("e17", wall, table, extra));
        } else {
            println!("{table}");
            println!("[e17 completed in {wall:.2} s]\n{}", "=".repeat(72));
        }
    }
    if wanted.is_empty() || wanted.contains(&"e18") {
        let t = std::time::Instant::now();
        let (table, m) = pvr_bench::e18_durability(
            scale.min(E18_MAX_SCALE),
            &shards,
            checkpoint_every,
            checkpoint_dir.as_deref().map(std::path::Path::new),
            restore.as_deref().map(std::path::Path::new),
        );
        let wall = t.elapsed().as_secs_f64();
        if json {
            let rows: Vec<String> = m
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{{\"shards\":{},\"events\":{},\"baseline_wall_secs\":{:.4},\
                         \"checkpointed_wall_secs\":{:.4},\"snapshot_overhead_pct\":{:.2},\
                         \"snapshots_retained\":{},\"checkpoints_written\":{},\
                         \"last_checkpoint_bytes\":{},\"checkpoint_write_secs\":{:.6},\
                         \"write_mb_per_sec\":{:.2},\"recovery_wall_secs\":{:.4},\
                         \"replay_events\":{},\"recovered_identical\":{},\
                         \"final_rib_sha256\":\"{}\"}}",
                        r.shards,
                        r.events,
                        r.baseline_wall_secs,
                        r.checkpointed_wall_secs,
                        r.snapshot_overhead_pct,
                        r.snapshots_retained,
                        r.checkpoints_written,
                        r.last_checkpoint_bytes,
                        r.checkpoint_write_secs,
                        r.write_mb_per_sec,
                        r.recovery_wall_secs,
                        r.replay_events,
                        r.recovered_identical,
                        r.final_rib_sha256,
                    )
                })
                .collect();
            let extra = format!(
                ",\"metrics\":{{\"scale\":{},\"ases\":{},\"checkpoint_every_ms\":{},\
                 \"rows\":[{}],\"forensic\":{{\"snapshots\":{},\"probes\":{},\
                 \"first_poisoned_ms\":{},\"poisoned_ases\":{}}}}}",
                m.scale,
                m.ases,
                m.checkpoint_every_ms,
                rows.join(","),
                m.forensic.snapshots,
                m.forensic.probes,
                m.forensic.first_poisoned_ms,
                m.forensic.poisoned_ases,
            );
            records.push(("e18", wall, table, extra));
        } else {
            println!("{table}");
            println!("[e18 completed in {wall:.2} s]\n{}", "=".repeat(72));
        }
    }

    if json {
        let mut out = String::from("{\"schema\":\"pvr-bench-v1\",");
        out.push_str(&format!("\"quick\":{quick},\"scale\":{scale},\"experiments\":["));
        for (i, (id, wall, table, extra)) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":\"{id}\",\"wall_secs\":{wall:.4},\"rows\":["));
            for (j, line) in table.lines().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(line));
                out.push('"');
            }
            out.push(']');
            out.push_str(extra);
            out.push('}');
        }
        out.push_str(&format!("],\"total_wall_secs\":{:.4}}}", total.elapsed().as_secs_f64()));
        println!("{out}");
    }
}
