//! E2 — Figure 2 / §3.5–3.7: multi-operator graph verification and
//! disclosure sizes as the provider count grows.

use crate::recipe::row;
use crate::recipe::{fmt_time, median_secs};
use crate::{Cfg, Report};
use pvr_bgp::Asn;
use pvr_core::Figure1Bed;
use pvr_mht::Label;
use pvr_rfg::AccessPolicy;

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E2: multi-operator graph navigation (Figure 2, §3.5-3.7)");
    row!(
        out,
        "{:>4} {:>9} {:>12} {:>14} {:>12}",
        "k",
        "vertices",
        "reveals→B",
        "bytes→B",
        "verify time"
    );
    for k in [2usize, 4, 8, 16, 32] {
        let lens: Vec<usize> = (0..k).map(|i| 2 + (i % 8)).collect();
        let bed = Figure1Bed::build_figure2(&lens, 7);
        let c = bed.honest_committer();
        let everyone: Vec<Asn> = bed.ns.iter().copied().chain([bed.b]).collect();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone);
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        let bytes: usize = {
            use pvr_crypto::Wire;
            reveals.iter().map(Wire::encoded_len).sum()
        };
        let out_label = Label::Var(bed.output_var.0);
        let inputs: Vec<Label> = bed.input_vars.iter().map(|v| Label::Var(v.0)).collect();
        let root = c.signed_root().root;
        let t = median_secs(5, || {
            let g = pvr_core::VisibleGraph::reconstruct(&reveals, &root).unwrap();
            assert!(g.check_figure2_promise(&out_label, &inputs[0], &inputs[1..]));
        });
        row!(
            out,
            "{:>4} {:>9} {:>12} {:>14} {:>12}",
            k,
            bed.graph.vars().count() + bed.graph.ops().count(),
            reveals.len(),
            bytes,
            fmt_time(t)
        );
    }
    row!(out, "(expected: reveals and bytes linear in k; verify time ~linear)");
    out.into()
}
