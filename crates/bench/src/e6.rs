//! E6 — §3.6: commitment and selective-disclosure scaling, and the
//! receiver's disclosure checked proof by proof against one batch.

use crate::recipe::row;
use crate::recipe::{check_floor, fmt_time, median_pair, median_secs};
use crate::{Cfg, Report};
use pvr_mht::{InclusionProof, Label, ProofBatch, SparseMht};

/// The proof-batch claim: the receiver's 16 bit-slot reveals against
/// one root hash 72 + 30 inner nodes through a `ProofBatch` where 16
/// lone `verify` calls hash 16 × 72, so the batch must be this much
/// faster (it sat around 9×; the 16 leaf hashes and the memo are what
/// is left). The hash counts themselves are gated clock-free in
/// `pvr-mht`'s unit tests.
const DISCLOSURE_FLOOR: f64 = 3.0;

pub fn run(cfg: &Cfg) -> Report {
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

    // §3.3: the receiver checks all 16 bit slots of one group against
    // one signed root; their 72-level paths differ in the last 5 bits.
    let items: Vec<(Label, Vec<u8>)> = (0..8)
        .map(|i| (Label::Var(i), vec![i as u8; 32]))
        .chain((1..=16).map(|i| (Label::Slot(1, i), vec![i as u8; 33])))
        .collect();
    let tree = SparseMht::build(&items, [7; 32]);
    let root = tree.root();
    let reveals: Vec<InclusionProof> =
        (1..=16).map(|i| tree.prove(&Label::Slot(1, i)).unwrap()).collect();
    let batched = || {
        let mut batch = ProofBatch::new(root);
        assert!(reveals.iter().all(|p| batch.verify(p)));
        batch
    };
    let (t_alone, t_batch) = median_pair(
        21,
        || assert!(reveals.iter().all(|p| p.verify(&root))),
        || {
            batched();
        },
    );
    let speedup = t_alone / t_batch;
    row!(
        out,
        "16 bit-slot reveals: one by one {} -> one ProofBatch {} ({speedup:.1}x; {} inner hashes)",
        fmt_time(t_alone),
        fmt_time(t_batch),
        batched().node_hashes()
    );
    check_floor(cfg, "e6 batched disclosure speedup", speedup, DISCLOSURE_FLOOR);
    row!(out, "(expected: build ~linear; proof size and verify time ~flat —");
    row!(out, " bounded by the label bit-length, not the leaf count)");
    out.into()
}
