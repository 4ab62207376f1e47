//! E5 — §3.8: batched signing of update bursts with a small MHT, timed
//! on the production signer: one router exporting a received signed
//! route to n targets, as n `SignedRoute::extend` calls against one
//! `SignedRoute::export`, for bursts at RSA-1024 and for one S-BGP
//! export to 30 neighbors at RSA-512.

use crate::recipe::row;
use crate::recipe::{check_floor, fmt_time, median_pair};
use crate::{Cfg, Report};
use pvr_bgp::sbgp::{Salt, SALT_LEN};
use pvr_bgp::{demo_chain, Asn, Route, SignedRoute, VerifyCache};
use pvr_crypto::{drbg::HmacDrbg, Identity, KeyStore, Wire};
use std::hint::black_box;
use std::sync::Arc;

/// The burst table's sizes, at RSA-1024.
const BURSTS: [usize; 6] = [1, 4, 16, 64, 256, 1024];

/// The export row's fan-out: the median of `signed_converge`.
const FAN_OUT: usize = 30;

/// §3.8's batch signing where signed convergence pays it: 30
/// signatures (one per neighbor) against one over a 30-leaf tree. The
/// unit costs model ≈ 9× (30 × 16.6 µs against 16.6 µs + 30 × 1.2 µs
/// of leaves, tree and digests); the batch must be this much faster.
const EXPORT_FLOOR: f64 = 5.0;

/// One router holding a signed route `hops` long, about to announce it
/// to its targets, with one salt per target.
struct Exporter {
    received: SignedRoute,
    keys: KeyStore,
    identity: Arc<Identity>,
    route: Route,
    targets: Vec<Asn>,
    salts: Vec<Salt>,
}

impl Exporter {
    fn new(hops: u32, key_bits: usize, fan_out: usize, seed: &[u8], label: &str) -> Exporter {
        let (received, mut keys, me) = demo_chain(hops, key_bits, seed);
        let mut rng = HmacDrbg::from_u64_labeled(5, label);
        let identity = Arc::new(Identity::generate(u64::from(me.0), key_bits, &mut rng));
        keys.register_identity(&identity);
        let route = received.route.clone().propagated_by(me);
        let targets = (100..).take(fan_out).map(Asn).collect();
        let mut salts = vec![[0; SALT_LEN]; fan_out];
        rng.generate(salts.as_flattened_mut());
        Exporter { received, keys, identity, route, targets, salts }
    }

    /// Medians of `samples` alternating runs announcing to the first
    /// `n` targets: one `extend` per target against one `export`, timed
    /// until the first `reads` recipients' newest attestations are read
    /// (an export signs its batch when one is first read). Every
    /// exported route must verify; returns the two times and one
    /// recipient's newest attestation's wire size.
    fn time(&self, n: usize, reads: usize, samples: usize) -> (f64, f64, usize) {
        let (targets, salts) = (&self.targets[..n], &self.salts[..n]);
        let export = || {
            SignedRoute::export(Some(&self.received), &self.identity, &self.route, targets, salts)
        };
        let (t_alone, t_batch) = median_pair(
            samples,
            || {
                for &target in targets {
                    let route = self.route.clone();
                    black_box(SignedRoute::extend(&self.received, &self.identity, route, target));
                }
            },
            || {
                for held in &export()[..reads] {
                    black_box(held.chain().newest());
                }
            },
        );
        let (routes, cache) = (export(), VerifyCache::new());
        for (held, &target) in routes.iter().zip(targets) {
            let verdict = held.verify_cached(target, &self.keys, Some(&cache));
            verdict.expect("e5: an exported attestation must verify");
        }
        let newest = routes[0].chain().newest().expect("an exported route is signed");
        (t_alone, t_batch, newest.encoded_len())
    }
}

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
    let burst = Exporter::new(1, 1024, BURSTS[BURSTS.len() - 1], b"e5 burst", "e5-burst");
    for n in BURSTS {
        let (t_alone, t_batch, bytes) = burst.time(n, n, 3);
        let (t_individual, t_batched) = (t_alone / n as f64, t_batch / n as f64);
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

    // One router's export of a 3-hop signed route at RSA-512, timed
    // until its first attestation is read.
    let (t_alone, t_batch, _) =
        Exporter::new(3, 512, FAN_OUT, b"e5 export", "e5-export").time(FAN_OUT, 1, 21);
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
