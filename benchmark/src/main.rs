//! The repo benchmark: seven workloads, four end-to-end metrics each,
//! and a traced run that attributes the end-to-end time to layers.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--seconds N] [--trace [0|1]] [--check]
//! ```
//!
//! With one `--workload` the run happens in this process and the last
//! line of standard output is the result as one JSON object (the form
//! `BENCHMARK.json`'s driver reads). With `all` (the default) every
//! workload runs in a child process of its own, one after the other.

mod probes;
mod trace;
mod workloads;

use probes::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Converge, Kind, Net, PvrRounds, Rep, Spec, Workload, SHARDS, SPECS};

/// The tuning seed. Seed 41 is held out: a later performance change
/// must report both.
const DEFAULT_SEED: u64 = 14;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// `setup_s` is the median of at least this many set-ups per run, and of
/// more (up to `MAX_SETUPS`) while all of them together have taken less
/// than `SETUPS_MIN_S`: a 25 ms set-up needs more samples than a 1 s one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUPS_MIN_S: f64 = 0.5;

struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    bound: f64,
}

/// Must agree with `end_to_end` in `BENCHMARK.json`.
const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "op_ms_p50", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "mb", higher_is_better: false, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// Every per-layer metric with its unit; must agree with `per_layer` in
/// `BENCHMARK.json`. A traced run prints all of them: a metric whose
/// layer the workload bypasses, or whose probe the workload does not
/// run, reads 0.
const PER_LAYER: [(&str, &str); 88] = [
    ("trace.explained_ratio", "ratio"),
    ("trace.overhead_x", "x"),
    ("host.slowdown_x", "x"),
    ("crypto.verifies", "count"),
    ("crypto.sign512_us", "us"),
    ("crypto.verify512_us", "us"),
    ("crypto.keygen512_ms", "ms"),
    ("crypto.sha256_mb_per_s", "mb/s"),
    ("crypto.drbg_mb_per_s", "mb/s"),
    ("crypto.sign1024_us", "us"),
    ("crypto.verify1024_us", "us"),
    ("crypto.modpow1024_us", "us"),
    ("crypto.commit_us", "us"),
    ("crypto.signed_minus_plain_s", "s"),
    ("crypto.explained_ratio", "ratio"),
    ("mht.build_us_per_leaf", "us"),
    ("mht.prove_us", "us"),
    ("mht.proof_verify_us", "us"),
    ("mht.proof_bytes", "bytes"),
    ("mht.seqtree_build_us_per_leaf", "us"),
    ("rfg.eval_us", "us"),
    ("rfg.dsl_compile_us", "us"),
    ("rfg.static_check_us", "us"),
    ("core.commit_ms", "ms"),
    ("core.disclose_us", "us"),
    ("core.verify_provider_us", "us"),
    ("core.verify_receiver_us", "us"),
    ("core.cross_check_us", "us"),
    ("core.round_self_us", "us"),
    ("core.op_ms_p95", "ms"),
    ("core.op_bytes", "bytes"),
    ("core.detected_ratio", "ratio"),
    ("bgp.updates_rx", "count"),
    ("bgp.updates_tx", "count"),
    ("bgp.best_changes", "count"),
    ("bgp.short_circuit_ratio", "ratio"),
    ("bgp.rib_entries", "count"),
    ("bgp.bytes_on_wire", "bytes"),
    ("bgp.decision_ns", "ns"),
    ("bgp.update_encode_ns", "ns"),
    ("bgp.self_ns_per_event", "ns"),
    ("bgp.topology_gen_s", "s"),
    ("bgp.instantiate_s", "s"),
    ("bgp.verify_calls", "count"),
    ("bgp.verify_cache_hit_ratio", "ratio"),
    ("bgp.chain_extend_us", "us"),
    ("bgp.chain_verify_cold_us", "us"),
    ("bgp.chain_verify_warm_us", "us"),
    ("bgp.withdraws_sent", "count"),
    ("bgp.dampening_suppressed", "count"),
    ("netsim.events", "count"),
    ("netsim.delivered", "count"),
    ("netsim.timers_fired", "count"),
    ("netsim.faults_applied", "count"),
    ("netsim.sim_converge_ms", "ms"),
    ("netsim.null_ns_per_event", "ns"),
    ("netsim.shard2_null_ns_per_event", "ns"),
    ("netsim.barrier_overhead_x", "x"),
    ("netsim.shard_speedup_x", "x"),
    ("smc.requests", "count"),
    ("smc.batches", "count"),
    ("smc.occupancy_pct", "%"),
    ("smc.and_gates", "count"),
    ("smc.rounds_charged", "count"),
    ("smc.modeled_s", "s"),
    ("smc.sim_overhead_x", "x"),
    ("smc.gates_per_s_batch64", "1/s"),
    ("smc.gates_per_s_serial", "1/s"),
    ("smc.wall_share_s", "s"),
    ("store.snapshots", "count"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_mb", "mb"),
    ("store.written_mb", "mb"),
    ("store.converge_ckpt_s", "s"),
    ("store.capture_s", "s"),
    ("store.checkpoint_write_mb_per_s", "mb/s"),
    ("store.restore_s", "s"),
    ("store.recover_s", "s"),
    ("store.replay_events", "count"),
    ("store.pmap_insert_us", "us"),
    ("store.pmap_get_us", "us"),
    ("store.pmap_diff_ms", "ms"),
    ("store.framing_read_mb_per_s", "mb/s"),
    ("obs.telemetry_overhead_x", "x"),
    ("obs.snapshot_merge_us", "us"),
    ("obs.expo_prometheus_ms", "ms"),
    ("attack.cells_per_s", "1/s"),
    ("attack.sweep_speedup_x", "x"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !SPECS.iter().any(|s| s.name == args.workload) {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "unknown workload {}; known: all, {}",
            args.workload,
            names.join(", ")
        ));
    }
    if args.check && args.workload != "all" {
        return Err("--check runs the full set; drop --workload".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pvr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match SPECS.iter().find(|s| s.name == args.workload) {
        Some(spec) => run_one(spec, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.

/// Where this process may write: `benchmark/out/`, next to the manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// Removes the per-process scratch directory when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations between two samples of the host's speed, at most.
const CALIBRATION_BLOCK: usize = 25;
/// Samples of the host's speed before, and again after, each set-up.
const SETUP_SAMPLES: usize = 4;

/// What a sequence of set-ups and operations measured. Times are wall
/// seconds; each has the host's slowdown while it ran beside it.
#[derive(Default)]
struct Measured {
    setups_s: Vec<f64>,
    setups_x: Vec<f64>,
    ops_s: Vec<f64>,
    ops_x: Vec<f64>,
    units: u64,
    failed: u64,
    /// The first operation's signature; later ones must repeat it.
    signature: Option<String>,
}

impl Measured {
    fn record(&mut self, rep: Rep) {
        let same = *self.signature.get_or_insert_with(|| rep.signature.clone()) == rep.signature;
        self.failed += u64::from(!(rep.ok && same));
        self.units += rep.units;
        self.ops_s.push(rep.wall_s);
    }

    fn busy_s(&self) -> f64 {
        self.ops_s.iter().sum()
    }

    /// A set-up is a few long library calls with nowhere to sample the
    /// host in between, so it gets several samples on either side: one
    /// sample that a preemption hit would otherwise decide the result.
    fn setup(&mut self, w: &mut impl Workload, tr: &mut Tracer) {
        w.teardown();
        let from = tr.samples();
        (0..SETUP_SAMPLES).for_each(|_| tr.calibrate());
        let t = Instant::now();
        w.setup(tr);
        self.setups_s.push(t.elapsed().as_secs_f64());
        (0..SETUP_SAMPLES).for_each(|_| tr.calibrate());
        self.setups_x.push(tr.slowdown_since(from));
    }

    /// Sets up and runs operations until they have been busy for
    /// `seconds`; always at least one operation. The host's speed is
    /// sampled around every set-up, around every block of operations,
    /// and by the operations themselves where they can be sliced.
    fn run(&mut self, w: &mut impl Workload, tr: &mut Tracer, seconds: f64) {
        let (start, first_op) = (self.busy_s(), self.ops_s.len());
        let enough = |m: &Measured| m.ops_s.len() > first_op && m.busy_s() - start >= seconds;
        loop {
            self.setup(w, tr);
            let mut more = true;
            while more && !enough(self) {
                let (first, from) = (self.ops_s.len(), tr.samples() - 1);
                while more && !enough(self) && self.ops_s.len() - first < CALIBRATION_BLOCK {
                    match w.op(tr) {
                        Some(rep) => self.record(rep),
                        None => more = false,
                    }
                }
                tr.calibrate();
                let x = tr.slowdown_since(from);
                self.ops_x.resize(self.ops_s.len(), x);
            }
            if enough(self) {
                return;
            }
        }
    }

    /// Operation times at the reference box's calm speed.
    fn ops_ref_s(&self) -> Vec<f64> {
        self.ops_s.iter().zip(&self.ops_x).map(|(s, x)| s / x).collect()
    }

    fn setups_ref_s(&self) -> Vec<f64> {
        self.setups_s.iter().zip(&self.setups_x).map(|(s, x)| s / x).collect()
    }
}

/// The value below which `q` of the sorted samples fall.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() % 2 == 1 {
        s[s.len() / 2]
    } else {
        (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_one(spec: &Spec, args: &Args) -> bool {
    let scratch = Scratch(out_dir().join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("benchmark/out is writable");
    println!(
        "# {} seed {} seconds {} trace {} ({} ASes, closed loop, 1 client, unit of work: {})",
        spec.name, args.seed, args.seconds, args.trace as u8, spec.ases, spec.unit
    );
    let (measured, metrics) = match (spec.kind, args.trace) {
        (Kind::PvrRounds, false) => untraced(&mut PvrRounds::new(args.seed), args.seconds),
        (Kind::PvrRounds, true) => traced_pvr(PvrRounds::new(args.seed), spec, args),
        (kind, false) => {
            untraced(&mut Converge::new(kind, args.seed, scratch.0.clone()), args.seconds)
        }
        (kind, true) => {
            traced_converge(Converge::new(kind, args.seed, scratch.0.clone()), spec, args)
        }
    };
    drop(scratch);

    let units = if args.trace { &PER_LAYER[..] } else { &[] };
    let mut json = String::new();
    for (name, value) in &metrics {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(units.iter().copied())
            .find_map(|(n, u)| (n == *name).then_some(u))
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not a number");
        println!("{name:<34} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let attempted = measured.ops_s.len() as u64;
    let correct = measured.failed == 0;
    println!("ops {attempted} failed_ops {} setups {}", measured.failed, measured.setups_s.len());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        measured.failed
    );
    correct
}

fn untraced(w: &mut impl Workload, seconds: f64) -> (Measured, Metrics) {
    let mut tr = Tracer::new(false);
    let mut m = Measured::default();
    m.run(w, &mut tr, seconds);
    while m.setups_s.len() < MIN_SETUPS
        || (m.setups_s.len() < MAX_SETUPS && m.setups_s.iter().sum::<f64>() < SETUPS_MIN_S)
    {
        m.setup(w, &mut tr);
    }
    let wall_ms: Vec<f64> = m.ops_s.iter().map(|s| s * 1e3).collect();
    println!(
        "# on this host's clock, slowdown {:.3}x: op_ms_p50 {:.4} work_per_s {:.4} setup_s {:.4}",
        median(&m.ops_x),
        median(&wall_ms),
        m.units as f64 / m.busy_s(),
        median(&m.setups_s)
    );
    let ref_ms: Vec<f64> = m.ops_ref_s().iter().map(|s| s * 1e3).collect();
    let metrics = vec![
        ("op_ms_p50", median(&ref_ms)),
        ("work_per_s", m.units as f64 / m.ops_ref_s().iter().sum::<f64>()),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", median(&m.setups_ref_s())),
    ];
    (m, metrics)
}

// ---------------------------------------------------------------------
// The traced run: one untraced pass, one traced pass, then the probes
// of the layers the workload loads.

/// One row of a workload's budget table: a layer's estimated share of
/// the untraced operation time.
struct BudgetRow {
    layer: &'static str,
    what: String,
    count: f64,
    unit_cost_us: f64,
}

impl BudgetRow {
    fn new(layer: &'static str, what: &str, count: f64, unit_cost_us: f64) -> BudgetRow {
        BudgetRow { layer, what: what.to_string(), count, unit_cost_us }
    }

    fn seconds(&self) -> f64 {
        self.count * self.unit_cost_us / 1e6
    }
}

/// Prints the table; returns Σ estimates ÷ `op_s`, the seconds of
/// `what` the rows are meant to add up to.
fn print_budget(spec: &Spec, what: &str, rows: &[BudgetRow], op_s: f64, overhead_x: f64) -> f64 {
    println!("# budget {}: {what} takes {op_s:.6} s", spec.name);
    println!(
        "# {:<10} {:<38} {:>12} {:>14} {:>10} {:>7}",
        "layer", "what", "count", "unit cost us", "est s", "share"
    );
    for r in rows {
        println!(
            "# {:<10} {:<38} {:>12.0} {:>14.3} {:>10.6} {:>6.1}%",
            r.layer,
            r.what,
            r.count,
            r.unit_cost_us,
            r.seconds(),
            100.0 * r.seconds() / op_s
        );
    }
    let explained = rows.iter().map(BudgetRow::seconds).sum::<f64>() / op_s;
    println!("# explained_ratio {explained:.3}   trace_overhead_x {overhead_x:.3}");
    explained
}

/// Both passes. The traced one goes last so that `counters` and the
/// network left behind are the traced operation's.
fn two_passes(w: &mut impl Workload, seconds: f64) -> (Measured, Measured, Tracer) {
    let mut off = Tracer::new(false);
    let mut untraced = Measured::default();
    untraced.run(w, &mut off, seconds / 4.0);
    let mut tr = Tracer::new(true);
    let mut traced = Measured::default();
    traced.run(w, &mut tr, seconds / 4.0);
    (untraced, traced, tr)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn get(metrics: &Metrics, name: &str) -> f64 {
    metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

/// Every declared per-layer metric, in declaration order; 0 where the
/// run produced nothing.
fn all_layers(found: Metrics) -> Metrics {
    for (name, _) in &found {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "metric {name} is not declared");
    }
    PER_LAYER.iter().map(|&(name, _)| (name, get(&found, name))).collect()
}

fn merge_runs(mut a: Measured, b: Measured) -> Measured {
    a.failed += b.failed + u64::from(a.signature != b.signature);
    a.units += b.units;
    a.ops_s.extend(b.ops_s);
    a.ops_x.extend(b.ops_x);
    a.setups_s.extend(b.setups_s);
    a.setups_x.extend(b.setups_x);
    a
}

fn write_trace(tr: &Tracer, spec: &Spec) {
    let path = out_dir().join(format!("trace-{}.json", spec.name));
    tr.write_json(spec.name, &path).expect("benchmark/out is writable");
    println!("# spans written to {}", path.display());
}

fn traced_converge(mut w: Converge, spec: &Spec, args: &Args) -> (Measured, Metrics) {
    let seed = args.seed;
    let (untraced, traced, tr) = two_passes(&mut w, args.seconds);
    let op_s = mean(&untraced.ops_s);
    let overhead_x = mean(&traced.ops_s) / op_s;
    let mut m = w.counters();
    m.push(("host.slowdown_x", median(&untraced.ops_x)));
    m.push(("bgp.topology_gen_s", tr.mean_seconds("internet_like")));
    m.push((
        "bgp.instantiate_s",
        tr.mean_seconds("instantiate") + tr.mean_seconds("instantiate_sharded"),
    ));
    let mut extra_failed = 0;

    let rows = match spec.kind {
        Kind::PlainConverge | Kind::ChurnFaults => {
            let Net::Serial(net) = w.done() else { unreachable!("serial workload") };
            m.extend(probes::bgp_decision(net, w.topology()));
            let events = get(&m, "netsim.events");
            m.extend(probes::netsim_null(events as u64, seed, SHARDS));
            let null_ns = get(&m, "netsim.null_ns_per_event");
            // Churn is timed from after initial convergence.
            let timed_events = untraced.units as f64 / untraced.ops_s.len() as f64;
            m.push(("bgp.self_ns_per_event", op_s * 1e9 / timed_events - null_ns));
            if spec.kind == Kind::PlainConverge {
                m.extend(probes::attack(seed));
            }
            vec![
                BudgetRow::new(
                    "netsim",
                    "events x null-agent engine cost",
                    timed_events,
                    null_ns / 1e3,
                ),
                BudgetRow::new(
                    "bgp",
                    "updates received x decision",
                    get(&m, "bgp.updates_rx"),
                    get(&m, "bgp.decision_ns") / 1e3,
                ),
                BudgetRow::new(
                    "bgp",
                    "updates sent x encode",
                    get(&m, "bgp.updates_tx"),
                    get(&m, "bgp.update_encode_ns") / 1e3,
                ),
            ]
        }
        Kind::SignedConverge | Kind::SignedConvergeSharded => {
            m.extend(probes::crypto_512(seed));
            m.extend(probes::bgp_chain(seed));
            let plain_s = w.reference().wall_s;
            let differential = op_s - plain_s;
            // Shards verify and sign in parallel.
            let lanes = if spec.kind == Kind::SignedConvergeSharded { SHARDS as f64 } else { 1.0 };
            let verify_us = get(&m, "crypto.verify512_us") / lanes;
            let sign_us = get(&m, "crypto.sign512_us") / lanes;
            let (verifies, signs) = (get(&m, "crypto.verifies"), get(&m, "bgp.updates_tx"));
            m.push(("crypto.signed_minus_plain_s", differential));
            m.push((
                "crypto.explained_ratio",
                (verifies * verify_us + signs * sign_us) / 1e6 / differential,
            ));
            if spec.kind == Kind::SignedConvergeSharded {
                m.extend(probes::netsim_null(get(&m, "netsim.events") as u64, seed, SHARDS));
                // The serial engine on the same inputs must agree on
                // everything but cache hits and time.
                let sharded_totals = w.done().router_totals().shard_invariant();
                let mut serial = Converge::new(Kind::SignedConverge, seed, PathBuf::new());
                let mut check = Measured::default();
                check.run(&mut serial, &mut Tracer::new(false), 0.0);
                let agree = check.signature == untraced.signature
                    && serial.done().router_totals().shard_invariant() == sharded_totals;
                extra_failed += u64::from(!agree) + check.failed;
                m.push(("netsim.shard_speedup_x", check.ops_s[0] / op_s));
            }
            vec![
                BudgetRow::new("crypto", "cache-missing verifies x verify512", verifies, verify_us),
                BudgetRow::new("crypto", "updates sent x sign512", signs, sign_us),
                BudgetRow::new("bgp+netsim", "plain converge, same topology", 1.0, plain_s * 1e6),
            ]
        }
        Kind::PrivateConverge => {
            let (smc, batch_s) = probes::smc(seed);
            m.extend(smc);
            let (plain_s, plain_sim_us) = (w.reference().wall_s, w.reference().sim_us);
            m.push(("smc.wall_share_s", op_s - plain_s));
            m.push((
                "smc.sim_overhead_x",
                get(&m, "netsim.sim_converge_ms") * 1e3 / plain_sim_us as f64,
            ));
            m.extend(telemetry(&w, plain_s));
            vec![
                BudgetRow::new(
                    "smc",
                    "batches x min+majority pass",
                    get(&m, "smc.batches"),
                    batch_s * 1e6,
                ),
                BudgetRow::new(
                    "bgp+netsim",
                    "non-private converge, same topology",
                    1.0,
                    plain_s * 1e6,
                ),
            ]
        }
        Kind::DurableConverge => {
            m.extend(probes::store());
            let plain_s = w.reference().wall_s;
            m.push(("store.capture_s", get(&m, "store.converge_ckpt_s") - plain_s));
            let path = w.checkpoint_dir().join("probe.pvr");
            std::fs::create_dir_all(w.checkpoint_dir()).expect("scratch is writable");
            let Net::Serial(net) = w.done_mut() else { unreachable!("serial workload") };
            let t = Instant::now();
            let bytes = net.checkpoint(&path).expect("scratch is writable");
            let write_mbps = bytes as f64 / 1e6 / t.elapsed().as_secs_f64();
            m.push(("store.checkpoint_write_mb_per_s", write_mbps));
            let (restore_s, recover_s) = (get(&m, "store.restore_s"), get(&m, "store.recover_s"));
            vec![
                // The first snapshot inserts the whole Loc-RIB; later
                // ones share structure and insert only what changed.
                BudgetRow::new(
                    "store",
                    "Loc-RIB entries x PMap insert (once)",
                    w.done().loc_rib_entries() as f64,
                    get(&m, "store.pmap_insert_us"),
                ),
                BudgetRow::new(
                    "store",
                    "checkpoint MB x encode+write per MB",
                    get(&m, "store.written_mb"),
                    1e6 / write_mbps,
                ),
                BudgetRow::new("store", "restore the middle checkpoint", 1.0, restore_s * 1e6),
                BudgetRow::new(
                    "bgp+netsim",
                    "replay to quiescence",
                    1.0,
                    (recover_s - restore_s) * 1e6,
                ),
                BudgetRow::new("bgp+netsim", "plain converge, same topology", 1.0, plain_s * 1e6),
            ]
        }
        Kind::PvrRounds => unreachable!("pvr_rounds is not a convergence workload"),
    };
    m.push((
        "trace.explained_ratio",
        print_budget(spec, "one operation, untraced,", &rows, op_s, overhead_x),
    ));
    m.push(("trace.overhead_x", overhead_x));
    write_trace(&tr, spec);
    let mut measured = merge_runs(untraced, traced);
    measured.failed += extra_failed;
    (measured, all_layers(m))
}

/// `obs`: the same topology converged with telemetry on, against the
/// dark reference run of this process.
fn telemetry(w: &Converge, dark_s: f64) -> Metrics {
    use pvr::bgp::InstantiateOptions;
    use pvr::netsim::{RunLimits, SimDuration};
    let mut net = w.topology().instantiate(InstantiateOptions {
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 64,
        private_verification: false,
        ..w.options()
    });
    let t = Instant::now();
    net.converge(RunLimits::none());
    let mut m = vec![("obs.telemetry_overhead_x", t.elapsed().as_secs_f64() / dark_s)];
    m.extend(probes::obs(&net));
    m
}

fn traced_pvr(mut w: PvrRounds, spec: &Spec, args: &Args) -> (Measured, Metrics) {
    let (untraced, traced, tr) = two_passes(&mut w, args.seconds);
    let op_s = mean(&untraced.ops_s);
    let overhead_x = mean(&traced.ops_s) / op_s;
    let mut m = w.counters();
    m.push(("host.slowdown_x", median(&untraced.ops_x)));
    m.extend(probes::crypto_1024(args.seed));
    m.extend(probes::mht());
    m.extend(probes::rfg(&w.beds[1]));
    let mut ms: Vec<f64> = untraced.ops_s.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    // About 240 operations: p95 is the highest percentile with at least
    // ten samples beyond it.
    m.push(("core.op_ms_p95", quantile(&ms, 0.95)));

    // Budget: the spans themselves, per honest round.
    let totals = tr.totals();
    let find = |name: &str| totals.iter().find(|r| r.name == name).expect("span was recorded");
    let round = find("round");
    let mut rows = Vec::new();
    for (name, metric, scale) in [
        ("Committer::new", "core.commit_ms", 1e3),
        ("disclosure_for_*", "core.disclose_us", 1e6),
        ("verify_as_provider", "core.verify_provider_us", 1e6),
        ("verify_as_receiver", "core.verify_receiver_us", 1e6),
        ("cross_check_roots", "core.cross_check_us", 1e6),
    ] {
        let span = find(name);
        m.push((metric, span.mean_s() * scale));
        let per_round = span.calls as f64 / round.calls as f64;
        rows.push(BudgetRow::new("core", name, per_round, span.mean_s() * 1e6));
    }
    m.push(("core.round_self_us", round.self_s / round.calls as f64 * 1e6));
    let honest_s = round.mean_s();
    m.push((
        "trace.explained_ratio",
        print_budget(spec, "one honest round, traced,", &rows, honest_s, overhead_x),
    ));
    m.push(("trace.overhead_x", overhead_x));
    write_trace(&tr, spec);
    (merge_runs(untraced, traced), all_layers(m))
}

// ---------------------------------------------------------------------
// Every workload, each in a child process of its own.

/// The number after `"name": {"value": ` on a result line.
fn metric_on_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs one workload in a child; returns its result line, or `None` if
/// it failed.
fn run_child(spec: &Spec, args: &Args, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own path is known");
    let output = std::process::Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last()?.to_string();
    (output.status.success() && last.contains("\"correct\": true")).then_some(last)
}

fn run_all(args: &Args) -> bool {
    println!(
        "# pvr-benchmark: {} workloads, seed {}, {} s each, {} core(s)",
        SPECS.len(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut ok = true;
    let mut sets: Vec<Vec<Option<String>>> = Vec::new();
    for _ in 0..if args.check { 2 } else { 1 } {
        sets.push(SPECS.iter().map(|spec| run_child(spec, args, false)).collect());
    }
    ok &= sets.iter().flatten().all(Option::is_some);
    if args.trace {
        ok &= SPECS.iter().all(|spec| run_child(spec, args, true).is_some());
    }
    if args.check {
        println!("# check: two sets of runs of the same code against each metric's bound");
        println!(
            "# {:<26} {:<12} {:>14} {:>14} {:>8} {:>6}",
            "workload", "metric", "first", "second", "ratio", "bound"
        );
        for (i, spec) in SPECS.iter().enumerate() {
            let (Some(first), Some(second)) = (&sets[0][i], &sets[1][i]) else { continue };
            for metric in &END_TO_END {
                let a = metric_on_line(first, metric.name).expect("child printed every metric");
                let b = metric_on_line(second, metric.name).expect("child printed every metric");
                let worse = if metric.higher_is_better { a / b } else { b / a };
                let within = worse <= 1.0 + metric.bound && 1.0 / worse <= 1.0 + metric.bound;
                ok &= within;
                println!(
                    "# {:<26} {:<12} {a:>14.4} {b:>14.4} {:>8.4} {:>6.2}{}",
                    spec.name,
                    metric.name,
                    b / a,
                    metric.bound,
                    if within { "" } else { "  DISAGREE" }
                );
            }
        }
    }
    println!("# {}", if ok { "all workloads correct" } else { "FAILED" });
    ok
}
