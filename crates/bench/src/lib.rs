//! Experiment implementations for the PVR reproduction.
//!
//! The paper has no numbered tables; the experiments map its figures
//! and quantitative prose claims. Each lives in its own module (`e1` …
//! `e18`, whose doc comment names the figure/section it reproduces)
//! and all have one shape: [`Experiment::run`] takes the harness
//! configuration ([`Cfg`]) and returns a [`Report`] — the printed
//! table, the structured rows of the `--json` record, and any file
//! artifacts. [`EXPERIMENTS`] is the only list of them: the `harness`
//! binary, `--quick`, flag scoping and the integration tests all read
//! it. DESIGN.md ("Experiment reports") has the contract.

pub mod cli;
pub mod recipe;
pub mod report;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

pub use cli::{parse_args, Cfg, FLAGS};
pub use recipe::e14_params;
pub use report::{across_shards, same_projection, Json, Report, ToJson, Wall};

/// One registered experiment.
pub struct Experiment {
    /// The id typed on the command line and written to the JSON record.
    pub id: &'static str,
    /// Whether `--quick` runs it: the cheapest experiment per
    /// subsystem, plus the scale experiments at a reduced `--scale`.
    pub in_quick: bool,
    /// The scoped flags ([`FLAGS`]) that parameterize it.
    pub flags: &'static [&'static str],
    /// Runs it. Under [`Cfg::quick`] the scale experiments also
    /// evaluate their smoke check (liveness of the reported numbers).
    pub run: fn(&Cfg) -> Report,
}

const fn experiment(
    id: &'static str,
    in_quick: bool,
    flags: &'static [&'static str],
    run: fn(&Cfg) -> Report,
) -> Experiment {
    Experiment { id, in_quick, flags, run }
}

/// Every experiment, in the order the harness runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment("e1", true, &[], e1::run),
    experiment("e2", true, &[], e2::run),
    experiment("e3", false, &[], e3::run),
    experiment("e4", false, &[], e4::run),
    experiment("e5", true, &[], e5::run),
    experiment("e6", false, &[], e6::run),
    experiment("e7", false, &[], e7::run),
    experiment("e8", false, &[], e8::run),
    experiment("e9", false, &[], e9::run),
    experiment("e10", false, &[], e10::run),
    experiment("e11", false, &[], e11::run),
    experiment("e12", true, &[], e12::run),
    experiment("e13", true, &[], e13::run),
    experiment("e14", true, &["--scale", "--shards"], e14::run),
    experiment("e15", true, &["--scale", "--shards", "--metrics-out", "--trace-out"], e15::run),
    experiment("e16", true, &["--scale", "--shards", "--churn", "--fault-seed"], e16::run),
    experiment("e17", true, &["--scale", "--shards", "--smc-batch"], e17::run),
    experiment(
        "e18",
        true,
        &["--scale", "--shards", "--checkpoint-every", "--checkpoint-dir", "--restore"],
        e18::run,
    ),
];
