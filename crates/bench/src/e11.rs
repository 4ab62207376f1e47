//! E11 — ablations of the repo's design choices: the naive per-route
//! commitment strawman vs the paper's bit vector, and blinded vs
//! unblinded MHT siblings.

use crate::recipe::row;
use crate::{Cfg, Report};
use pvr_bgp::{workload, Asn, InstantiateOptions, Topology};
use pvr_core::{compare_naive_vs_paper, Figure1Bed};
use pvr_mht::{unblinded_phantom, Label, SiblingBlinding, SparseMht};
use pvr_netsim::{RunLimits, SimDuration};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E11: design-choice ablations");

    // Ablation 1: naive per-route commitments leak the length multiset.
    row!(out, "\n-- bit vector (paper) vs per-route commitments (naive) --");
    row!(
        out,
        "{:<8} {:>22} {:>14} {:>14}",
        "k",
        "naive leak (lengths)",
        "naive bytes",
        "paper bytes"
    );
    for lens in [vec![2usize, 5], vec![2, 3, 5, 7], vec![2, 3, 4, 5, 6, 7, 8, 9]] {
        let bed = Figure1Bed::build(&lens, 21);
        let report = compare_naive_vs_paper(&bed);
        let leaked: Vec<u32> = report.naive_leak.values().copied().collect();
        row!(
            out,
            "{:<8} {:>22} {:>14} {:>14}",
            lens.len(),
            format!("{leaked:?}"),
            report.naive_bytes,
            report.paper_bytes
        );
    }
    row!(out, "(paper protocol reveals only the minimum — already visible via the route)");

    // Ablation 2: blinded vs unblinded phantom siblings.
    row!(out, "\n-- blinded (paper) vs unblinded phantom siblings --");
    let xs = vec![(Label::Var(0), b"leaf".to_vec())];
    let path = Label::Var(0).to_bits();
    let mut detected = [0usize; 2];
    for (i, mode) in [SiblingBlinding::Unblinded, SiblingBlinding::Blinded].into_iter().enumerate()
    {
        let tree = SparseMht::build_with(&xs, [9; 32], mode);
        let proof = tree.prove(&Label::Var(0)).unwrap();
        for (j, sib) in proof.siblings.iter().enumerate() {
            let depth = path.len() - 1 - j;
            let sib_path = path.prefix(depth).push(!path.bit(depth));
            if *sib == unblinded_phantom(&sib_path) {
                detected[i] += 1;
            }
        }
    }
    row!(
        out,
        "unblinded: attacker identifies {}/{} siblings as empty subtrees",
        detected[0],
        path.len()
    );
    row!(
        out,
        "blinded:   attacker identifies {}/{} (expected 0 — absence is hidden)",
        detected[1],
        path.len()
    );

    // Ablation 3: MRAI batching interacts with burst signing (E5).
    row!(out, "\n-- MRAI churn damping (substrate, feeds §3.8 batching) --");
    {
        let build = || {
            let mut t = Topology::new();
            let origin = Asn(1);
            let provider = Asn(2);
            let prefix = pvr_bgp::Prefix::parse("10.0.0.0/8").unwrap();
            t.provider_customer(provider, origin);
            t.originate(origin, prefix);
            workload::flap(
                &mut t,
                origin,
                prefix,
                SimDuration::from_millis(50),
                SimDuration::from_millis(1),
                20,
            );
            (t, provider)
        };
        for (label, mrai) in
            [("no MRAI", None), ("MRAI 100 ms", Some(SimDuration::from_millis(100)))]
        {
            let (t, provider) = build();
            let mut net = t.instantiate(InstantiateOptions { mrai, ..Default::default() });
            net.converge(RunLimits::none());
            row!(
                out,
                "{:<12} updates delivered to provider: {}",
                label,
                net.router(provider).stats().updates_rx
            );
        }
    }
    out.into()
}
