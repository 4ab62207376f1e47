//! Recipe pieces several experiments share: the `internet_like`
//! parameters per scale, the scale ladder, timing and table helpers.

use pvr_bgp::{BgpNetwork, InstantiateOptions, InternetParams, Topology};
use pvr_netsim::{RunLimits, StopReason};
use std::time::Instant;

/// Appends one formatted line to a table (`writeln!` on a `String`
/// cannot fail, so there is nothing to unwrap).
macro_rules! row {
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}
pub(crate) use row;

/// Median wall-clock of `n` runs of `f`, in seconds.
pub fn median_secs<F: FnMut()>(n: usize, mut f: F) -> f64 {
    median((0..n).map(|_| secs(&mut f)).collect())
}

/// Medians of `n` alternating runs of `slow` and `fast`, in seconds.
/// A speedup read this way holds on a shared host: a burst of load
/// lands on both sides, not only on whichever was running.
pub(crate) fn median_pair(n: usize, mut slow: impl FnMut(), mut fast: impl FnMut()) -> (f64, f64) {
    let (a, b) = (0..n).map(|_| (secs(&mut slow), secs(&mut fast))).unzip();
    (median(a), median(b))
}

fn secs(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A speedup claim's CI floor: under `--quick` the run fails, naming
/// `claim`, when the measured `ratio` is below `floor`.
pub(crate) fn check_floor(cfg: &crate::Cfg, claim: &str, ratio: f64, floor: f64) {
    if cfg.quick {
        assert!(ratio >= floor, "{claim}: {ratio:.1}x is under its {floor}x floor");
    }
}

pub(crate) fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.0} ns", secs * 1e9)
    }
}

/// The topology a given E14 scale runs on. At the seed scale (≤56) this
/// is the stock [`InternetParams::default`] with every stub
/// originating; larger scales grow the tier-2 layer with the AS count
/// and cap originations at 256 so RIB growth measures propagation, not
/// workload size. Internet scale (>20 000 ASes) tightens the cap to 64:
/// RIB state grows with ASes × origins, and 80k × 256 would spend the
/// run's memory on workload rather than topology. Scales at or below
/// 20 000 are untouched, so the existing ladder's numbers are stable.
pub fn e14_params(ases: usize) -> InternetParams {
    if ases <= 56 {
        return InternetParams::default();
    }
    let tier1 = 8;
    // Clamped at 900: the generator's tier-2 ASN range (100..) must
    // stay clear of the stub range (1000..).
    let tier2 = (ases / 40).clamp(12, 900);
    InternetParams {
        tier1,
        tier2,
        stubs: ases - tier1 - tier2,
        t2_peering_prob: 0.2,
        originating_stubs: if ases > 20_000 { 64 } else { 256 },
    }
}

/// The run every substrate measurement starts from: `topology`
/// instantiated at `shards` shards — with its origin table installed
/// on the signed substrate, so imports validate origins — and
/// converged to quiescence. Returns the network and the wall-clock
/// seconds the convergence took.
pub(crate) fn converged(
    what: &str,
    topology: &Topology,
    options: InstantiateOptions,
    shards: usize,
) -> (BgpNetwork, f64) {
    let mut net = topology.instantiate_sharded(options, shards);
    if options.signed {
        net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
    }
    let t = Instant::now();
    let stop = net.converge(RunLimits::none());
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(stop, StopReason::Quiescent, "{what}: shards {shards} did not converge");
    (net, wall)
}

/// The AS counts a scale experiment converges: every rung at or below
/// `max_scale`, then `max_scale` itself, ascending without repeats.
pub(crate) fn ladder(rungs: &[usize], max_scale: usize) -> Vec<usize> {
    let mut scales: Vec<usize> = rungs.iter().copied().filter(|&s| s < max_scale).collect();
    scales.push(max_scale);
    scales
}

/// Whether `s` is a full lower- or upper-case hex SHA-256.
pub(crate) fn is_sha256_hex(s: &str) -> bool {
    s.len() == 64 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Part of every scale experiment's `--quick` smoke check: its rows
/// cover exactly the shard counts CI's perf record is read at.
pub(crate) fn smoke_shards(id: &str, seen: impl Iterator<Item = usize>) {
    let seen: std::collections::BTreeSet<usize> = seen.collect();
    let want = crate::cli::QUICK_SHARDS;
    assert!(
        seen.iter().eq(want.iter()),
        "{id}: quick mode runs shard counts {want:?}, got {seen:?}"
    );
}
