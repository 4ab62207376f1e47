//! The harness command line: one [`Cfg`] field and one [`FLAGS`] row
//! per flag, validated up front by [`parse_args`] — before any
//! experiment burns CPU, and before anything is printed.

use crate::{Experiment, EXPERIMENTS};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Everything the command line can set: the harness's twelve flags.
/// `Default` is a full run; `--quick` lowers `scale` and `shards`.
#[derive(Clone, Debug, PartialEq)]
pub struct Cfg {
    /// `--quick`: the CI smoke subset, at [`QUICK_SCALE`] and
    /// [`QUICK_SHARDS`], with each experiment's smoke check on.
    pub quick: bool,
    /// `--json`: one `pvr-bench-v1` document instead of the tables.
    pub json: bool,
    /// `--scale`: the largest AS count the scale experiments converge
    /// (e15 and e18 cap their own ladders at 1000).
    pub scale: usize,
    /// `--shards`: the shard counts the scale experiments run at.
    pub shards: Vec<usize>,
    /// `--churn`: e16's continuous-churn event count.
    pub churn: usize,
    /// `--fault-seed`: seeds e16's fault plan, degradation edge choice
    /// and deployment sweep.
    pub fault_seed: u64,
    /// `--smc-batch`: e17's GMW batch width, lanes per word.
    pub smc_batch: usize,
    /// `--metrics-out`: where e15's Prometheus exposition goes.
    pub metrics_out: Option<PathBuf>,
    /// `--trace-out`: where e15's JSONL event trace goes.
    pub trace_out: Option<PathBuf>,
    /// `--checkpoint-every`: e18's cadence, sim-time milliseconds.
    pub checkpoint_every: u64,
    /// `--checkpoint-dir`: keeps e18's checkpoint files (per-shard-count
    /// subdirectories `s<N>/`) instead of a deleted temp directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--restore`: e18's operator drill restores and replays this file.
    pub restore: Option<PathBuf>,
}

/// `--scale` under `--quick`: small enough for CI, large enough that a
/// propagation regression shows.
pub const QUICK_SCALE: usize = 500;
/// `--shards` under `--quick`: one shard plus a two-shard run, so CI
/// smoke exercises worker threads and the merged exchange.
pub const QUICK_SHARDS: [usize; 2] = [1, 2];

impl Default for Cfg {
    fn default() -> Self {
        Cfg {
            quick: false,
            json: false,
            scale: 5000,
            shards: vec![1],
            churn: 64,
            fault_seed: 16,
            smc_batch: 64,
            metrics_out: None,
            trace_out: None,
            checkpoint_every: 10,
            checkpoint_dir: None,
            restore: None,
        }
    }
}

impl Cfg {
    /// `shards`, ascending and without repeats: the order every scale
    /// experiment runs its shard counts in (the first is the baseline
    /// the others are compared against).
    pub fn shard_counts(&self) -> Vec<usize> {
        let mut counts = self.shards.clone();
        counts.sort_unstable();
        counts.dedup();
        counts
    }
}

/// One command-line flag.
pub struct Flag {
    /// The flag as typed.
    pub name: &'static str,
    /// Placeholder for its value in the usage line; empty for a switch.
    pub value: &'static str,
    /// What a valid value is, for the error message.
    needs: &'static str,
    /// Stores a value; `false` when it is outside the valid range.
    set: Setter,
}

type Setter = fn(&mut Cfg, &str) -> bool;

const fn flag(name: &'static str, value: &'static str, needs: &'static str, set: Setter) -> Flag {
    Flag { name, value, needs, set }
}

fn int<T: std::str::FromStr + PartialOrd>(v: &str, range: RangeInclusive<T>) -> Option<T> {
    v.trim().parse().ok().filter(|n| range.contains(n))
}

/// A path whose directory exists (the file itself is created later).
fn in_existing_dir(v: &str) -> Option<PathBuf> {
    let dir = Path::new(v).parent().filter(|p| !p.as_os_str().is_empty());
    dir.is_none_or(Path::is_dir).then(|| PathBuf::from(v))
}

const OUT_FILE: &str = "a file path in an existing directory";

/// Every flag the harness takes. The scoped ones (all but the two
/// switches) are rejected unless an experiment listing them in
/// [`Experiment::flags`] is selected.
pub const FLAGS: &[Flag] = &[
    flag("--quick", "", "", |c, _| {
        (c.quick, c.scale, c.shards) = (true, QUICK_SCALE, QUICK_SHARDS.to_vec());
        true
    }),
    flag("--json", "", "", |c, _| {
        c.json = true;
        true
    }),
    flag("--scale", "N", "an AS count between 56 and 90000", |c, v| {
        int(v, 56..=90_000).map(|n| c.scale = n).is_some()
    }),
    flag("--shards", "LIST", "a comma-separated list of counts between 1 and 64", |c, v| {
        let list: Option<Vec<usize>> = v.split(',').map(|p| int(p, 1..=64)).collect();
        list.map(|l| c.shards = l).is_some()
    }),
    flag("--churn", "N", "an event count between 1 and 100000", |c, v| {
        int(v, 1..=100_000).map(|n| c.churn = n).is_some()
    }),
    flag("--fault-seed", "N", "an unsigned integer", |c, v| {
        int(v, 0..=u64::MAX).map(|n| c.fault_seed = n).is_some()
    }),
    flag("--smc-batch", "N", "a lane count between 1 and 64", |c, v| {
        int(v, 1..=64).map(|n| c.smc_batch = n).is_some()
    }),
    flag("--metrics-out", "FILE", OUT_FILE, |c, v| {
        in_existing_dir(v).map(|p| c.metrics_out = Some(p)).is_some()
    }),
    flag("--trace-out", "FILE", OUT_FILE, |c, v| {
        in_existing_dir(v).map(|p| c.trace_out = Some(p)).is_some()
    }),
    flag(
        "--checkpoint-every",
        "MS",
        "a sim-time cadence between 1 and 60000 milliseconds",
        |c, v| int(v, 1..=60_000).map(|n| c.checkpoint_every = n).is_some(),
    ),
    // The directory itself is created on demand.
    flag("--checkpoint-dir", "DIR", "a directory path that exists or whose parent does", |c, v| {
        let dir = Path::new(v).is_dir().then(|| PathBuf::from(v)).or_else(|| in_existing_dir(v));
        dir.map(|p| c.checkpoint_dir = Some(p)).is_some()
    }),
    flag("--restore", "FILE", "the path of an existing checkpoint file", |c, v| {
        Path::new(v).is_file().then(|| c.restore = Some(PathBuf::from(v))).is_some()
    }),
];

/// Parses the harness's arguments (without the program name) into the
/// configuration and the experiments to run, in registry order. Any
/// `Err` is a usage error (the harness exits 2 with it): a missing or
/// out-of-range value, an unknown flag or experiment id, `--quick`
/// combined with ids, a scoped flag whose experiments are not
/// selected, an output path into a missing directory, a `--restore`
/// file that does not exist.
pub fn parse_args(args: &[String]) -> Result<(Cfg, Vec<&'static Experiment>), String> {
    let mut cfg = Cfg::default();
    // Switches first: `--quick` sets defaults the value flags override,
    // wherever it sits.
    for switch in FLAGS.iter().filter(|f| f.value.is_empty() && args.iter().any(|a| a == f.name)) {
        (switch.set)(&mut cfg, "");
    }
    let mut given: Vec<&'static str> = Vec::new();
    let mut ids: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            ids.push(arg);
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            let usage: Vec<String> = FLAGS
                .iter()
                .map(|f| format!("{} {}", f.name, f.value).trim().to_string())
                .collect();
            return Err(format!("unknown flag `{arg}` (flags: {})", usage.join(", ")));
        };
        if flag.value.is_empty() {
            continue;
        }
        let value = it.next().filter(|v| !v.is_empty() && !v.starts_with("--"));
        if !value.is_some_and(|v| (flag.set)(&mut cfg, v)) {
            let got = value.map_or("nothing".to_string(), |v| format!("`{v}`"));
            return Err(format!("{} needs {}, got {got}", flag.name, flag.needs));
        }
        given.push(flag.name);
    }
    if let Some(bad) = ids.iter().find(|id| EXPERIMENTS.iter().all(|e| e.id != **id)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!("unknown experiment id `{bad}` (known: {})", known.join(", ")));
    }
    if cfg.quick && !ids.is_empty() {
        return Err(format!("--quick cannot be combined with explicit experiment ids {ids:?}"));
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| if cfg.quick { e.in_quick } else { ids.is_empty() || ids.contains(&e.id) })
        .collect();
    // Silently ignoring a flag on a selection that cannot use it would
    // contradict the strict validation above.
    for name in given {
        if !selected.iter().any(|e| e.flags.contains(&name)) {
            let users: Vec<&str> =
                EXPERIMENTS.iter().filter(|e| e.flags.contains(&name)).map(|e| e.id).collect();
            return Err(format!(
                "{name} only applies to {}, none of which is selected",
                users.join("/")
            ));
        }
    }
    Ok((cfg, selected))
}
