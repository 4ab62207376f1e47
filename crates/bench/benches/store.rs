//! `pvr-store` on RIB-shaped data: 500 ASes × 256 prefixes, keyed like
//! the checkpoint layer's Loc-RIB cells (`asn` BE ‖ `addr` BE ‖ `len`),
//! so the upper trie levels are shared by thousands of keys — the shape
//! that separates one batched `PMap::apply` (each dirty node hashed
//! once) from a fold of single-key inserts (each key re-hashes its
//! whole 18-nibble path). Each capture runs twice: on values unique to
//! their AS (content that never repeats, so interning only costs) and on
//! values shared by every AS behind one of 8 providers (the RIB's
//! shape, where most nodes a batch would build already exist).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pvr_store::{dump_snapshots, load_snapshots, PMap};
use std::hint::black_box;

const ASES: u32 = 500;
const PREFIXES: u32 = 256;

type Edit = (Vec<u8>, Option<Vec<u8>>);

/// Providers whose ASes share their values in the shared-value batches.
const PROVIDERS: u32 = 8;

/// Every cell in key order; `generation` varies the values. `shared`
/// makes an AS's values those of every AS behind the same provider.
fn cells(generation: u8, shared: bool) -> Vec<Edit> {
    let mut out = Vec::with_capacity((ASES * PREFIXES) as usize);
    for asn in 1..=ASES {
        for p in 0..PREFIXES {
            let mut key = asn.to_be_bytes().to_vec();
            key.extend_from_slice(&(0x0a00_0000 | (p << 8)).to_be_bytes());
            key.push(24);
            // About the size of a wire-encoded `Candidate`.
            let mut value = vec![generation; 40];
            let source = if shared { asn % PROVIDERS } else { asn };
            value[..4].copy_from_slice(&source.to_be_bytes());
            value[4..8].copy_from_slice(&p.to_be_bytes());
            out.push((key, Some(value)));
        }
    }
    out
}

fn fold(base: &PMap, edits: &[Edit]) -> PMap {
    edits.iter().fold(base.clone(), |m, (k, edit)| match edit {
        Some(v) => m.insert(k, v),
        None => m.remove(k),
    })
}

/// The first snapshot's edits and a second snapshot's worth of churn:
/// every fourth cell, of which every fourth is a withdrawal and the rest
/// carry a new value.
fn batches(shared: bool) -> (Vec<Edit>, Vec<Edit>) {
    let churn = cells(1, shared)
        .into_iter()
        .step_by(4)
        .enumerate()
        .map(|(i, (k, v))| (k, if i % 4 == 0 { None } else { v }))
        .collect();
    (cells(0, shared), churn)
}

fn bench_capture(c: &mut Criterion) {
    for (shared, suffix) in [(false, ""), (true, "_shared_values")] {
        let (first, churn) = batches(shared);
        let base = PMap::new().apply(&first);
        assert_eq!(base.root_hash(), fold(&PMap::new(), &first).root_hash());
        assert_eq!(base.apply(&churn).root_hash(), fold(&base, &churn).root_hash());

        let mut g = c.benchmark_group(format!("store_first_snapshot{suffix}"));
        g.throughput(Throughput::Elements(first.len() as u64));
        g.bench_function("fold_inserts", |b| b.iter(|| black_box(fold(&PMap::new(), &first))));
        g.bench_function("apply", |b| b.iter(|| black_box(PMap::new().apply(&first))));
        g.finish();

        let mut g = c.benchmark_group(format!("store_churn_25pct{suffix}"));
        g.throughput(Throughput::Elements(churn.len() as u64));
        g.bench_function("fold_inserts", |b| b.iter(|| black_box(fold(&base, &churn))));
        g.bench_function("apply", |b| b.iter(|| black_box(base.apply(&churn))));
        g.finish();
    }
}

/// Dump and load of a two-snapshot history on unique values.
fn bench_history(c: &mut Criterion) {
    let (first, churn) = batches(false);
    let base = PMap::new().apply(&first);
    let second = base.apply(&churn);
    let history = [(0, &base), (1, &second)];
    let bytes = dump_snapshots(&history);
    let mut g = c.benchmark_group("store_history");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("dump_snapshots", |b| b.iter(|| black_box(dump_snapshots(&history))));
    g.bench_function("load_snapshots", |b| {
        b.iter(|| black_box(load_snapshots(&bytes).expect("a dump just written loads")))
    });
    g.finish();
}

criterion_group!(benches, bench_capture, bench_history);
criterion_main!(benches);
