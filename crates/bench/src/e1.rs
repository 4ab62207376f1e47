//! E1 — Figure 1 / §3.3: detection matrix for the minimum operator.
//! Rows: behavior → detected? evidence? guilty verdicts? false
//! positives are counted across honest seeds.

use crate::recipe::row;
use crate::{Cfg, Report};
use pvr_core::{run_min_round, Figure1Bed, Misbehavior, Verdict};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E1: minimum-operator detection matrix (Figure 1, §3.3)");
    row!(out, "{:<22} {:>9} {:>9} {:>8}", "behavior", "detected", "evidence", "guilty");

    // Honest runs across seeds: false-positive rate must be 0.
    let mut false_positives = 0;
    let honest_runs = 10;
    for seed in 0..honest_runs {
        let bed = Figure1Bed::build(&[2, 3, 5], 1000 + seed);
        if !run_min_round(&bed, None).clean() {
            false_positives += 1;
        }
    }
    row!(out, "{:<22} {:>9} {:>9} {:>8}", "honest (10 seeds)", false_positives, 0, 0);

    let bed = Figure1Bed::build(&[2, 3, 5], 42);
    let behaviors = vec![
        ("export-longer", Misbehavior::ExportLonger),
        ("suppress-min-input", Misbehavior::SuppressInput { victim: bed.ns[0] }),
        ("deny-all", Misbehavior::DenyAll),
        ("equivocate", Misbehavior::Equivocate { victim: bed.ns[0] }),
        ("non-monotone-bits", Misbehavior::NonMonotoneBits),
        ("fabricate-export", Misbehavior::FabricateExport),
        ("refuse-reveal", Misbehavior::RefuseReveal { victim: bed.ns[0] }),
        ("corrupt-opening", Misbehavior::CorruptOpening { victim: bed.ns[0] }),
    ];
    for (name, b) in behaviors {
        let report = run_min_round(&bed, Some(b));
        let guilty = report.verdicts.iter().filter(|(_, v)| *v == Verdict::Guilty).count();
        row!(
            out,
            "{:<22} {:>9} {:>9} {:>8}",
            name,
            report.detected(),
            report.verdicts.len(),
            guilty
        );
    }
    row!(out, "(expected: honest row all zeros; every row below detected=true;");
    row!(out, " omission faults — refuse/corrupt — detected without evidence)");
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E1's claims must hold programmatically.
    #[test]
    fn e1_properties() {
        let bed = Figure1Bed::build(&[2, 3, 5], 42);
        let honest = run_min_round(&bed, None);
        let cheat = run_min_round(&bed, Some(Misbehavior::ExportLonger));
        assert!(honest.clean() && cheat.detected() && cheat.convicted());
    }
}
