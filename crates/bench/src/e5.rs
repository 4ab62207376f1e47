//! E5 — §3.8: batched signing of update bursts with a small MHT, and
//! the same trick where signed convergence pays it: one S-BGP export
//! to 30 neighbors signed per neighbor vs as one batch.

use crate::recipe::row;
use crate::recipe::{check_floor, fmt_time, median_pair, median_secs};
use crate::{Cfg, Report};
use pvr_bgp::sbgp::{Salt, SALT_LEN};
use pvr_bgp::{demo_chain, Asn, SignedRoute};
use pvr_core::batch;
use pvr_crypto::{drbg::HmacDrbg, Identity};
use std::hint::black_box;
use std::sync::Arc;

/// The export row's fan-out: the median of `signed_converge`.
const FAN_OUT: usize = 30;

/// §3.8's batch signing where signed convergence pays it: 30
/// signatures (one per neighbor) against one over a 30-leaf tree. The
/// unit costs model ≈ 9× (30 × 16.6 µs against 16.6 µs + 30 × 1.2 µs
/// of leaves, tree and digests); the batch must be this much faster.
const EXPORT_FLOOR: f64 = 5.0;

pub fn run(cfg: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E5: batched signing of BGP bursts (§3.8), RSA-1024");
    row!(
        out,
        "{:>6} {:>16} {:>16} {:>10} {:>14}",
        "burst",
        "per-update sign",
        "batched sign",
        "speedup",
        "bytes/update"
    );
    let mut rng = HmacDrbg::from_u64_labeled(5, "e5-key");
    let identity = Identity::generate(100, 1024, &mut rng);
    for n in [1usize, 4, 16, 64, 256, 1024] {
        let items: Vec<Vec<u8>> = (0..n).map(|i| format!("update {i}").into_bytes()).collect();
        let t_individual = median_secs(3, || {
            for it in &items {
                std::hint::black_box(identity.sign(it));
            }
        }) / n as f64;
        let t_batched = median_secs(3, || {
            std::hint::black_box(batch::SignedBatch::sign(&identity, 1, &items));
        }) / n as f64;
        let b = batch::SignedBatch::sign(&identity, 1, &items);
        let bytes = b.item(0).unwrap().byte_size();
        row!(
            out,
            "{:>6} {:>16} {:>16} {:>9.1}x {:>14}",
            n,
            fmt_time(t_individual),
            fmt_time(t_batched),
            t_individual / t_batched,
            bytes
        );
    }

    // One router's export of a 3-hop signed route at RSA-512:
    // `SignedRoute::extend` per neighbor against one
    // `SignedRoute::export`, whose batch is signed when first read.
    let (received, mut keys, me) = demo_chain(3, 512, b"e5 export");
    let mut rng = HmacDrbg::from_u64_labeled(5, "e5-export");
    let identity = Arc::new(Identity::generate(u64::from(me.0), 512, &mut rng));
    keys.register_identity(&identity);
    let route = received.route.clone().propagated_by(me);
    let targets: Vec<Asn> = (100..).take(FAN_OUT).map(Asn).collect();
    let mut salts: Vec<Salt> = vec![[0; SALT_LEN]; FAN_OUT];
    rng.generate(salts.as_flattened_mut());
    let export = || SignedRoute::export(Some(&received), &identity, &route, &targets, &salts);
    let (t_alone, t_batch) = median_pair(
        21,
        || {
            for &target in &targets {
                black_box(SignedRoute::extend(&received, &identity, route.clone(), target));
            }
        },
        || {
            black_box(export()[0].chain().newest());
        },
    );
    let routes = export();
    for (held, &target) in routes.iter().zip(&targets) {
        held.verify(target, &keys).expect("e5: an exported attestation must verify");
    }
    let speedup = t_alone / t_batch;
    row!(
        out,
        "S-BGP export to {FAN_OUT} neighbors, RSA-512: per-neighbor {} -> batched {} \
         ({speedup:.1}x; ≈ 9x modeled)",
        fmt_time(t_alone),
        fmt_time(t_batch)
    );
    check_floor(cfg, "e5 batched export speedup", speedup, EXPORT_FLOOR);
    row!(out, "(expected: per-update cost flat; batched cost ~1/n toward the hash floor;");
    row!(out, " bytes/update grows only logarithmically)");
    out.into()
}
