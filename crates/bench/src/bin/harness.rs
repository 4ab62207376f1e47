//! The experiment harness: regenerates every experiment table (the
//! module docs of `pvr_bench::e1` … `e18` name the figure/section each
//! one reproduces). Everything here is derived from two tables in
//! `pvr_bench`: `EXPERIMENTS` (ids, the `--quick` subset, which flags
//! apply to which experiment) and `FLAGS` (the command line).
//!
//! Usage:
//!   cargo run --release -p pvr-bench --bin harness             # all
//!   cargo run --release -p pvr-bench --bin harness e4 e13      # subset
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
//! Every argument is validated before anything runs or is printed
//! (`pvr_bench::parse_args`): an unknown flag or experiment id, a
//! missing or out-of-range value, `--quick` combined with ids, a flag
//! none of whose experiments is selected, an output path into a missing
//! directory or a `--restore` file that does not exist all exit 2 with
//! one `error:` line. `pvr_bench::Cfg` documents each flag (its fields)
//! and the defaults (`Default`), `pvr_bench::FLAGS` the value ranges.
//!
//! `--quick` runs the CI smoke subset (the cheapest experiment per
//! subsystem plus the scale experiments e14–e18) at
//! `--scale 500 --shards 1,2` and evaluates each scale experiment's
//! smoke check: assertions on the typed rows that only hold at that
//! scale (e14 reaches 500 ASes at shard counts 1 and 2, e16's
//! dampening suppressed something, …). It also holds four measured
//! speedups to their floors: e4's 64-lane batch GMW (≥ 10×), e5's
//! batched 30-neighbor export (≥ 5×), e6's batched 16-reveal
//! disclosure check (≥ 3×) and e13's in-situ RSA-512 signing (≥ 10×).
//!
//! `--shards LIST` is the determinism gate: e14–e18 run at every
//! listed count (the one engine with that many worker calendars; 1 =
//! inline dispatch, no threads), and every reported value not typed
//! `Wall<T>` (wall-clock, the shard-shaped checkpoint size, the
//! verify-cache hit counts) must be identical at all of them, or the
//! run panics naming the experiment, the two counts and the field. CI's
//! gate is the exit code of one
//! `--scale 500 --shards 1,2,4,8 e14 e15 e16 e17 e18`.
//!
//! `--json` replaces the human tables with one JSON document on stdout:
//! `{schema, quick, scale, experiments: [{id, wall_secs, rows, …}],
//! total_wall_secs}` — the format CI archives as the `BENCH_*.json`
//! perf trajectory; `rows` is the table, line by line. The scale
//! experiments append their typed rows under `metrics` (e15 also
//! `timeline`); the field lists are `E14Cell`, `E16Metrics`, `E17Row`
//! and `E18Metrics` in `pvr_bench`, and for e15 the `ToJson` of a
//! `pvr_obs::Snapshot` and a `ConvergenceTimeline` in its `report`
//! module.

use pvr_bench::{parse_args, Json};
use std::time::Instant;

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, selected) = parse_args(&args).unwrap_or_else(|e| usage_error(&e));
    if !cfg.json {
        println!("PVR reproduction — experiment harness");
        println!("paper: Gurney et al., HotNets-X 2011\n");
    }

    let secs = |wall: f64| Json::Raw(format!("{wall:.4}"));
    let total = Instant::now();
    let mut records: Vec<Json> = Vec::new();
    for experiment in selected {
        let t = Instant::now();
        let report = (experiment.run)(&cfg);
        let wall = t.elapsed().as_secs_f64();
        for (path, content) in &report.artifacts {
            if let Some(path) = path {
                std::fs::write(path, content)
                    .unwrap_or_else(|e| usage_error(&format!("writing `{}`: {e}", path.display())));
            }
        }
        if cfg.json {
            let rows = report.table.lines().map(|line| Json::Str(line.to_string())).collect();
            let mut record = vec![
                ("id", Json::Str(experiment.id.to_string())),
                ("wall_secs", secs(wall)),
                ("rows", Json::Arr(rows)),
            ];
            record.extend(
                report.metrics.iter().filter_map(|(k, v)| Some((*k, v.to_json(false, 0)?))),
            );
            records.push(Json::Obj(record));
        } else {
            println!("{}", report.table);
            println!("[{} completed in {wall:.2} s]\n{}", experiment.id, "=".repeat(72));
        }
    }
    if cfg.json {
        let doc = Json::Obj(vec![
            ("schema", Json::Str("pvr-bench-v1".to_string())),
            ("quick", Json::Raw(cfg.quick.to_string())),
            ("scale", Json::Raw(cfg.scale.to_string())),
            ("experiments", Json::Arr(records)),
            ("total_wall_secs", secs(total.elapsed().as_secs_f64())),
        ]);
        println!("{}", doc.render());
    }
}
