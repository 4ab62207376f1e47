//! E5 — §3.8: batched signing of update bursts with a small MHT.

use crate::recipe::row;
use crate::recipe::{fmt_time, median_secs};
use crate::{Cfg, Report};
use pvr_core::batch;
use pvr_crypto::{drbg::HmacDrbg, Identity};

pub fn run(_: &Cfg) -> Report {
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
    row!(out, "(expected: per-update cost flat; batched cost ~1/n toward the hash floor;");
    row!(out, " bytes/update grows only logarithmically)");
    out.into()
}
