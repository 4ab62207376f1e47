//! E3 — §3.8: "a cryptographic hash-function (such as SHA-256), which
//! are relatively cheap, and a public-key signature scheme (such as
//! RSA). A RSA-1024 signature takes about two milliseconds."

use crate::recipe::row;
use crate::recipe::{fmt_time, median_secs};
use crate::{Cfg, Report};
use pvr_crypto::{drbg::HmacDrbg, sha256, RsaPrivateKey};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E3: primitive costs (§3.8)");

    // SHA-256 over a BGP-update-sized message.
    let msg = vec![0xabu8; 4096];
    let t_hash = median_secs(51, || {
        std::hint::black_box(sha256(&msg));
    });
    row!(out, "{:<28} {:>12}", "SHA-256 (4 KiB)", fmt_time(t_hash));

    for bits in [512usize, 1024, 2048] {
        let mut rng = HmacDrbg::from_u64_labeled(3, "e3-keys");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        let t_sign = median_secs(11, || {
            std::hint::black_box(key.sign(&msg));
        });
        let sig = key.sign(&msg);
        let t_verify = median_secs(11, || {
            key.public().verify(&msg, &sig).unwrap();
        });
        row!(
            out,
            "{:<28} {:>12}   verify {:>10}",
            format!("RSA-{bits} sign"),
            fmt_time(t_sign),
            fmt_time(t_verify)
        );
        if bits == 1024 {
            row!(
                out,
                "  paper claim: RSA-1024 ≈ 2 ms (2011 hardware); measured {}",
                fmt_time(t_sign)
            );
        }
    }
    row!(out, "(expected shape: hash µs-scale, signatures ms-scale, quadratic-ish in bits)");
    out.into()
}
