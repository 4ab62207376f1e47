//! E9 — §3.2: ring-signature link-state variant scaling.

use crate::recipe::row;
use crate::recipe::{fmt_time, median_secs};
use crate::{Cfg, Report};
use pvr_crypto::{drbg::HmacDrbg, ring_sign, ring_verify, RsaPrivateKey};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E9: ring signatures for the link-state variant (§3.2)");
    row!(out, "{:>6} {:>12} {:>12} {:>12}", "ring", "sign", "verify", "sig bytes");
    let mut rng = HmacDrbg::from_u64_labeled(9, "e9-ring");
    let keys: Vec<RsaPrivateKey> =
        (0..16).map(|_| RsaPrivateKey::generate(512, &mut rng)).collect();
    for k in [2usize, 4, 8, 16] {
        let ring: Vec<_> = keys[..k].iter().map(|x| x.public().clone()).collect();
        let t_sign = median_secs(3, || {
            std::hint::black_box(
                ring_sign(b"a route exists", &ring, 0, &keys[0], &mut rng).unwrap(),
            );
        });
        let sig = ring_sign(b"a route exists", &ring, 0, &keys[0], &mut rng).unwrap();
        let t_verify = median_secs(3, || {
            ring_verify(b"a route exists", &ring, &sig).unwrap();
        });
        let bytes = sig.v.len() * (1 + sig.xs.len());
        row!(out, "{:>6} {:>12} {:>12} {:>12}", k, fmt_time(t_sign), fmt_time(t_verify), bytes);
    }
    row!(out, "(expected: sign ≈ 1 private op + k-1 public ops; verify k public ops;");
    row!(out, " size linear in k)");
    out.into()
}
