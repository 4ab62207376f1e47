//! E10 — §2: the promise ladder; static implementation and
//! minimum-access checks for every promise type.

use crate::recipe::row;
use crate::{Cfg, Report};
use pvr_bgp::Asn;
use pvr_core::Figure1Bed;
use pvr_rfg::{AccessPolicy, Promise};
use std::collections::BTreeSet;

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E10: promise ladder static checks (§2)");
    row!(out, "{:<34} {:>12} {:>12} {:>12}", "promise", "fig1 graph", "fig2 graph", "verifiable");
    let bed1 = Figure1Bed::build(&[2, 3, 4], 10);
    let bed2 = Figure1Bed::build_figure2(&[2, 3, 4], 10);
    let everyone: Vec<Asn> = bed1.ns.iter().copied().chain([bed1.b]).collect();
    let alpha1 = AccessPolicy::paper_example(&bed1.graph, &everyone);
    let subset: BTreeSet<Asn> = bed1.ns.iter().copied().collect();
    let promises: Vec<(&str, Promise)> = vec![
        ("1: shortest overall", Promise::ShortestOverall),
        ("2: shortest of subset", Promise::ShortestOfSubset { subset: subset.clone() }),
        ("3: within ε=2 of best", Promise::WithinHopsOfBest { epsilon: 2 }),
        ("4: no longer than others", Promise::NoLongerThanOthers),
        ("exists (§3.2)", Promise::Existential { subset: subset.clone() }),
        (
            "fig2: prefer unless shorter",
            Promise::PreferUnlessShorter {
                fallback: bed1.ns[0],
                preferred: bed1.ns[1..].iter().copied().collect(),
            },
        ),
    ];
    for (name, p) in promises {
        row!(
            out,
            "{:<34} {:>12} {:>12} {:>12}",
            name,
            p.implemented_by(&bed1.graph, bed1.b),
            p.implemented_by(&bed2.graph, bed2.b),
            p.verifiable_under(&bed1.graph, &alpha1, bed1.b)
        );
    }
    row!(out, "(expected: the min graph implements 1,2,3,4,∃ — not fig2's promise;");
    row!(out, " the fig2 graph implements only its own promise)");
    out.into()
}
