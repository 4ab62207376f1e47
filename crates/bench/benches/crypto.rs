//! E13 — primitive costs (§3.8): SHA-256 vs RSA sign/verify, plus
//! the fast-crypto path cases: Montgomery vs schoolbook modpow, the
//! sign/verify baselines, and attestation chain verification with and
//! without the network-wide cache. The `e3_*` group names are those
//! of the retired E3 (folded into E13); CI's crypto step reads them.
//!
//! The `*_rotating` rows are the in-situ shape: a signed convergence
//! never signs one message under one key twice in a row, so they walk
//! 8 keys and a fresh message per call. The single-key rows repeat one
//! input, which lets a branch predictor learn whatever in the
//! arithmetic depends on the data — read the two side by side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pvr_bgp::{demo_chain, VerifyCache};
use pvr_crypto::{drbg::HmacDrbg, sha256, HmacKey, Montgomery, RsaPrivateKey, Ubig};
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_sha256");
    for size in [64usize, 1024, 4096] {
        let data = vec![0xabu8; size];
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(sha256(d)));
        });
    }
    g.finish();
}

/// What a random word costs: a MAC under a retained key (two
/// compressions), one 8-byte draw (a `generate` plus the state update
/// behind it, eight), and a bulk request (two per 32 bytes).
fn bench_drbg(c: &mut Criterion) {
    let mut g = c.benchmark_group("drbg");
    let key = HmacKey::new(&[0x0bu8; 32]);
    let block = [0xabu8; 32];
    g.bench_function("hmac_keyed_32B", |b| {
        b.iter(|| black_box(key.mac(&[black_box(&block)])));
    });
    let mut rng = HmacDrbg::from_u64_labeled(4, "bench-drbg");
    g.bench_function("drbg_u64", |b| {
        b.iter(|| black_box(rng.u64()));
    });
    let mut buf = vec![0u8; 4096];
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("drbg_generate_4k", |b| {
        b.iter(|| rng.generate(black_box(&mut buf)));
    });
    g.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_rsa");
    g.sample_size(10);
    let msg = vec![0xabu8; 1024];
    for bits in [512usize, 1024] {
        let mut rng = HmacDrbg::from_u64_labeled(1, "bench-rsa");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        g.bench_function(BenchmarkId::new("sign", bits), |b| {
            b.iter(|| black_box(key.sign(&msg)));
        });
        let sig = key.sign(&msg);
        g.bench_function(BenchmarkId::new("verify", bits), |b| {
            b.iter(|| key.public().verify(&msg, &sig).unwrap());
        });

        // In-situ shape: 8 keys in rotation, no message seen twice
        // (sign) or 256 distinct signed messages in rotation (verify).
        let keys: Vec<RsaPrivateKey> =
            (0..8).map(|_| RsaPrivateKey::generate(bits, &mut rng)).collect();
        let mut i = 0usize;
        g.bench_function(BenchmarkId::new("sign_rotating", bits), |b| {
            b.iter(|| {
                i += 1;
                black_box(keys[i % keys.len()].sign(&i.to_be_bytes()))
            });
        });
        g.bench_function(BenchmarkId::new("sign_rotating_schoolbook", bits), |b| {
            b.iter(|| {
                i += 1;
                black_box(keys[i % keys.len()].sign_schoolbook(&i.to_be_bytes()))
            });
        });
        let signed: Vec<([u8; 8], _)> = (0..256usize)
            .map(|j| (j.to_be_bytes(), keys[j % keys.len()].sign(&j.to_be_bytes())))
            .collect();
        g.bench_function(BenchmarkId::new("verify_rotating", bits), |b| {
            b.iter(|| {
                i += 1;
                let (msg, sig) = &signed[i % signed.len()];
                keys[i % keys.len()].public().verify(msg, sig).unwrap()
            });
        });
    }
    let mut rng = HmacDrbg::from_u64_labeled(5, "bench-keygen");
    g.bench_function(BenchmarkId::new("keygen", 512), |b| {
        b.iter(|| black_box(RsaPrivateKey::generate(512, &mut rng)));
    });
    g.finish();
}

/// One `Montgomery::pow` with a full-width exponent at the limb counts
/// under RSA-512/1024/2048 CRT signing, bases in rotation.
fn bench_pow(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_pow");
    g.sample_size(10);
    for limbs in [4usize, 8, 16] {
        let mut rng = HmacDrbg::from_u64_labeled(6, "bench-pow");
        let mut n = Ubig::random_bits(64 * limbs, &mut rng);
        n.set_bit(0);
        let ctx = Montgomery::new(&n).unwrap();
        let exp = Ubig::random_bits(64 * limbs, &mut rng);
        let bases: Vec<Ubig> = (0..64).map(|_| Ubig::random_below(&n, &mut rng)).collect();
        let mut i = 0usize;
        g.bench_function(BenchmarkId::new("limbs", limbs), |b| {
            b.iter(|| {
                i += 1;
                black_box(ctx.pow(&bases[i % bases.len()], &exp))
            });
        });
    }
    g.finish();
}

/// E13: Montgomery modpow vs the schoolbook baseline it replaced, at a
/// full-width exponent (the core of CRT signing).
fn bench_modpow(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_modpow");
    g.sample_size(10);
    for bits in [1024usize, 2048] {
        let mut rng = HmacDrbg::from_u64_labeled(2, "bench-modpow");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        let n = key.public().n().clone();
        let base = Ubig::random_below(&n, &mut rng);
        let exp = Ubig::random_bits(bits - 1, &mut rng);
        g.bench_function(BenchmarkId::new("montgomery", bits), |b| {
            b.iter(|| black_box(base.modpow(&exp, &n)));
        });
        g.bench_function(BenchmarkId::new("schoolbook", bits), |b| {
            b.iter(|| black_box(base.modpow_schoolbook(&exp, &n)));
        });
    }
    g.finish();
}

/// E13: sign/verify on the fast path vs the pre-PR schoolbook path, at
/// the acceptance size (2048 bits).
fn bench_sign_verify_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_rsa2048");
    g.sample_size(10);
    let msg = b"attestation-sized message";
    let mut rng = HmacDrbg::from_u64_labeled(3, "bench-2048");
    let key = RsaPrivateKey::generate(2048, &mut rng);
    g.bench_function("sign/montgomery", |b| {
        b.iter(|| black_box(key.sign(msg)));
    });
    g.bench_function("sign/schoolbook", |b| {
        b.iter(|| black_box(key.sign_schoolbook(msg)));
    });
    let sig = key.sign(msg);
    g.bench_function("verify/montgomery", |b| {
        b.iter(|| key.public().verify(msg, &sig).unwrap());
    });
    g.bench_function("verify/schoolbook", |b| {
        b.iter(|| key.public().verify_schoolbook(msg, &sig).unwrap());
    });
    g.finish();
}

/// E13: verifying a full attestation chain, uncached vs through a warm
/// network-wide cache (the per-hop import cost in `sbgp`).
fn bench_chain_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_chain_verify");
    g.sample_size(10);
    let (chain, keys, receiver) = demo_chain(5, 1024, b"bench-chain");
    g.bench_function("uncached", |b| {
        b.iter(|| chain.verify(receiver, &keys).unwrap());
    });
    let warm = VerifyCache::new();
    chain.verify_cached(receiver, &keys, Some(&warm)).unwrap();
    g.bench_function("warm_cache", |b| {
        b.iter(|| chain.verify_cached(receiver, &keys, Some(&warm)).unwrap());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_drbg,
    bench_rsa,
    bench_pow,
    bench_modpow,
    bench_sign_verify_baseline,
    bench_chain_verify
);
criterion_main!(benches);
