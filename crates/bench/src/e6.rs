//! E6 — §3.6: commitment and selective-disclosure scaling.

use crate::recipe::row;
use crate::recipe::{fmt_time, median_secs};
use crate::{Cfg, Report};
use pvr_mht::{Label, SparseMht};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E6: sparse-MHT commitment & disclosure scaling (§3.6)");
    row!(
        out,
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "leaves",
        "build",
        "proof bytes",
        "verify",
        "nodes"
    );
    for n in [1usize, 16, 64, 256, 1024, 4096] {
        let items: Vec<(Label, Vec<u8>)> =
            (0..n as u32).map(|i| (Label::Var(i), vec![i as u8; 32])).collect();
        let t_build = median_secs(3, || {
            std::hint::black_box(SparseMht::build(&items, [7; 32]));
        });
        let tree = SparseMht::build(&items, [7; 32]);
        let proof = tree.prove(&Label::Var(0)).unwrap();
        let root = tree.root();
        let t_verify = median_secs(11, || {
            assert!(proof.verify(&root));
        });
        row!(
            out,
            "{:>7} {:>12} {:>12} {:>12} {:>12}",
            n,
            fmt_time(t_build),
            proof.byte_size(),
            fmt_time(t_verify),
            tree.node_count()
        );
    }
    row!(out, "(expected: build ~linear; proof size and verify time ~flat —");
    row!(out, " bounded by the label bit-length, not the leaf count)");
    out.into()
}
