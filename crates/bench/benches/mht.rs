//! E6 — sparse-MHT scaling (§3.6): build, prove, verify, and the
//! receiver's disclosure checked proof by proof against one batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pvr_mht::{InclusionProof, Label, ProofBatch, SparseMht};
use std::hint::black_box;

fn items(n: u32) -> Vec<(Label, Vec<u8>)> {
    (0..n).map(|i| (Label::Var(i), vec![i as u8; 32])).collect()
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_mht_build");
    g.sample_size(10);
    for n in [16u32, 256, 1024] {
        let xs = items(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &xs, |b, xs| {
            b.iter(|| black_box(SparseMht::build(xs, [7; 32])));
        });
    }
    // One 72-level leaf: 72 phantoms and 72 inner nodes, so the row reads
    // phantom derivation (two compressions each under the prepared key)
    // beside the node hashing nothing can remove.
    let lone = [(Label::Slot(1, 1), vec![1u8; 33])];
    g.bench_function("phantoms", |b| b.iter(|| black_box(SparseMht::build(&lone, [7; 32]))));
    g.finish();
}

fn bench_prove_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_mht_proofs");
    for n in [16u32, 1024] {
        let tree = SparseMht::build(&items(n), [7; 32]);
        g.bench_function(BenchmarkId::new("prove", n), |b| {
            b.iter(|| black_box(tree.prove(&Label::Var(0)).unwrap()));
        });
        let proof = tree.prove(&Label::Var(0)).unwrap();
        let root = tree.root();
        g.bench_function(BenchmarkId::new("verify", n), |b| {
            b.iter(|| assert!(proof.verify(&root)));
        });
    }
    // §3.3: the receiver checks all 16 bit slots of one group against
    // one signed root; their 72-level paths differ in the last 5 bits.
    let mut xs = items(8);
    xs.extend((1..=16).map(|i| (Label::Slot(1, i), vec![i as u8; 33])));
    let tree = SparseMht::build(&xs, [7; 32]);
    let root = tree.root();
    let reveals: Vec<InclusionProof> =
        (1..=16).map(|i| tree.prove(&Label::Slot(1, i)).unwrap()).collect();
    g.bench_function(BenchmarkId::new("verify_disclosure/individual", 16), |b| {
        b.iter(|| assert!(reveals.iter().all(|p| p.verify(&root))));
    });
    g.bench_function(BenchmarkId::new("verify_disclosure/batch", 16), |b| {
        b.iter(|| {
            let mut batch = ProofBatch::new(root);
            assert!(reveals.iter().all(|p| batch.verify(p)));
        });
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_prove_verify);
criterion_main!(benches);
