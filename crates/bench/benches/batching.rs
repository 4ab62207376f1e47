//! E5 — burst batching (§3.8): one signature per burst vs one per update;
//! and the same trick where signed convergence pays it, one S-BGP export
//! to 30 neighbors signed per neighbor vs as one batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pvr_bgp::sbgp::{Salt, SALT_LEN};
use pvr_bgp::{demo_chain, Asn, SignedRoute, VerifyCache};
use pvr_core::batch::SignedBatch;
use pvr_crypto::{drbg::HmacDrbg, Identity};
use std::hint::black_box;
use std::sync::Arc;

fn bench_batching(c: &mut Criterion) {
    let mut rng = HmacDrbg::from_u64_labeled(5, "bench-batch");
    let identity = Identity::generate(100, 1024, &mut rng);
    let mut g = c.benchmark_group("e5_batching");
    g.sample_size(10);
    for n in [1usize, 16, 256] {
        let items: Vec<Vec<u8>> = (0..n).map(|i| format!("update {i}").into_bytes()).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("individual", n), |b| {
            b.iter(|| {
                for it in &items {
                    black_box(identity.sign(it));
                }
            });
        });
        g.bench_function(BenchmarkId::new("batched", n), |b| {
            b.iter(|| black_box(SignedBatch::sign(&identity, 1, &items)));
        });
    }
    g.finish();
}

/// One router's export of a 3-hop signed route to 30 neighbors (the
/// median fan-out of `signed_converge`), at RSA-512: 30 attestations
/// signed one by one (`SignedRoute::extend` per neighbor) against one
/// batch (`SignedRoute::export`, read once to sign it); then one
/// recipient's attestation checked cold — its proof and the root
/// signature — and its whole chain through a warm cache.
fn bench_export(c: &mut Criterion) {
    const FAN_OUT: usize = 30;
    let (received, mut keys, me) = demo_chain(3, 512, b"bench export");
    let mut rng = HmacDrbg::from_u64_labeled(32, "bench-export");
    let identity = Arc::new(Identity::generate(u64::from(me.0), 512, &mut rng));
    keys.register_identity(&identity);
    let route = received.route.clone().propagated_by(me);
    let targets: Vec<Asn> = (0..FAN_OUT as u32).map(|i| Asn(100 + i)).collect();
    let mut salts: Vec<Salt> = vec![[0; SALT_LEN]; FAN_OUT];
    rng.generate(salts.as_flattened_mut());

    let mut g = c.benchmark_group("sbgp_export");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("per_neighbor", FAN_OUT), |b| {
        b.iter(|| {
            for &target in &targets {
                black_box(SignedRoute::extend(&received, &identity, route.clone(), target));
            }
        });
    });
    g.bench_function(BenchmarkId::new("batched", FAN_OUT), |b| {
        b.iter(|| {
            let routes = SignedRoute::export(Some(&received), &identity, &route, &targets, &salts);
            black_box(routes[0].chain().newest())
        });
    });
    let routes = SignedRoute::export(Some(&received), &identity, &route, &targets, &salts);
    let (held, receiver) = (&routes[FAN_OUT / 2], targets[FAN_OUT / 2]);
    held.verify(receiver, &keys).expect("a genuine export");
    g.bench_function(BenchmarkId::new("verify_cold", FAN_OUT), |b| {
        b.iter(|| black_box(held.chain().verify_newest(&keys)).expect("genuine"));
    });
    let warm = VerifyCache::new();
    held.verify_cached(receiver, &keys, Some(&warm)).expect("genuine");
    g.bench_function(BenchmarkId::new("verify_warm", FAN_OUT), |b| {
        b.iter(|| black_box(held.verify_cached(receiver, &keys, Some(&warm))).expect("cached"));
    });
    g.finish();
}

criterion_group!(benches, bench_batching, bench_export);
criterion_main!(benches);
