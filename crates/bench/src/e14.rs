//! E14 — internet-scale route propagation: converged `internet_like`
//! runs at a ladder of AS counts (56 → 1 000 → `--scale`) under
//! `Plain` and `Signed`, at each requested shard count, reporting
//! topology size, convergence events, events/sec, peak RIB entries,
//! bytes on the wire, and the incremental decision path's
//! short-circuit count; the footer prints §3.8's attestation overhead,
//! signed over plain bytes per update, per scale. Everything except
//! the [`Wall`] fields is deterministic *and identical across shard
//! counts* — the run itself requires it ([`across_shards`]).

use crate::recipe::{converged, e14_params, is_sha256_hex, ladder, row, smoke_shards};
use crate::{across_shards, report_struct, Cfg, Report, Wall};
use pvr_bgp::{internet_like, InstantiateOptions};

report_struct! {
    /// One measured cell of E14: a (scale, shard-count, security-mode)
    /// convergence run.
    pub struct E14Cell {
        /// Requested AS-count scale.
        pub scale: usize,
        /// Security mode label (`plain` / `signed`).
        pub mode: &'static str,
        /// Shard count the run used.
        pub shards: Wall<usize>,
        /// Actual AS count of the generated topology.
        pub ases: usize,
        /// Relationship edges.
        pub edges: usize,
        /// Originated /24s.
        pub origins: usize,
        /// Convergence events processed.
        pub events: u64,
        /// Wall-clock of the convergence run.
        pub wall_secs: Wall<f64> => 4,
        /// `events / wall_secs`.
        pub events_per_sec: Wall<f64> => 1,
        /// Network-wide Adj-RIB-In + Loc-RIB entries at quiescence — the
        /// peak, since a converging network only accumulates
        /// reachability.
        pub peak_rib_entries: u64,
        /// Sum of payload wire sizes for all sent messages.
        pub bytes_on_wire: u64,
        /// Decision runs resolved O(1) by the incremental path.
        pub short_circuits: u64,
        /// Content hash (hex SHA-256) of the converged network-wide
        /// Loc-RIB, from the durability layer's COW snapshot trie.
        pub final_rib_sha256: String,
    }
}

pub fn run(cfg: &Cfg) -> Report {
    let max_scale = cfg.scale;
    let shard_counts = cfg.shard_counts();

    let mut out = String::new();
    let mut cells: Vec<E14Cell> = Vec::new();
    row!(out, "E14: internet-scale route propagation (max scale {max_scale})");
    row!(out, "(scales >56 originate one /24 from each of the first min(stubs,256) stubs,");
    row!(out, " capped at 64 past 20k ASes; signed rows use RSA-512 attestations + ROV;");
    row!(out, " one engine, `shards` sets its worker count)");
    row!(
        out,
        "{:>6} {:<7} {:>6} {:>6} {:>7} {:>8} {:>10} {:>10} {:>10} {:>14} {:>11} {:>12}",
        "scale",
        "mode",
        "shards",
        "ases",
        "edges",
        "origins",
        "events",
        "events/s",
        "peak RIB",
        "bytes",
        "O(1) skips",
        "rib sha256"
    );
    for scale in ladder(&[56, 1000], max_scale) {
        let topology = internet_like(e14_params(scale), 14);
        let origins: usize = topology.ases().map(|a| topology.originated_by(a).len()).sum();
        let per_count = across_shards(&format!("e14 scale {scale}"), &shard_counts, |shards| {
            let mut at_count: Vec<E14Cell> = Vec::new();
            for (mode, signed) in [("plain", false), ("signed", true)] {
                let options =
                    InstantiateOptions { seed: 14, signed, key_bits: 512, ..Default::default() };
                let what = format!("e14 scale {scale} {mode}");
                let (net, wall) = converged(&what, &topology, options, shards);
                let stats = net.sim.stats();
                let mut rib = 0u64;
                let mut shorts = 0u64;
                for asn in net.ases() {
                    let r = net.router(asn);
                    let (adj_in, loc) = r.rib_entry_counts();
                    rib += (adj_in + loc) as u64;
                    shorts += r.stats().reselect_short_circuits;
                }
                let cell = E14Cell {
                    scale,
                    mode,
                    shards: Wall(shards),
                    ases: topology.as_count(),
                    edges: topology.edge_count(),
                    origins,
                    events: stats.events,
                    wall_secs: Wall(wall),
                    events_per_sec: Wall(stats.events as f64 / wall.max(1e-9)),
                    peak_rib_entries: rib,
                    bytes_on_wire: stats.bytes_sent,
                    short_circuits: shorts,
                    final_rib_sha256: net.rib_fingerprint().to_hex(),
                };
                assert_live(&cell);
                at_count.push(cell);
            }
            for cell in &at_count {
                write_row(&mut out, cell);
            }
            at_count
        });
        cells.extend(per_count.into_iter().flatten());
    }
    row!(out, "(expected: events/peak-RIB/bytes identical across modes and shard counts");
    row!(out, " at each scale — signatures change bytes only, sharding changes timing");
    row!(out, " only; plain events/s far above signed, which is RSA-bound — see E13;");
    row!(out, " short-circuits cover a third of decision runs)");
    // §3.8's byte overhead: attestation bytes per update, signed over
    // plain, per scale (one shard count suffices; bytes do not vary).
    for (p, s) in mode_pairs(&cells).filter(|(p, _)| p.shards.0 == shard_counts[0]) {
        let per_update = |c: &E14Cell| c.bytes_on_wire as f64 / c.events as f64;
        let (plain, signed) = (per_update(p), per_update(s));
        row!(
            out,
            "bytes/update scale {}: plain {plain:.0}, signed {signed:.0} ({:.1}x with attestations)",
            p.scale,
            signed / plain
        );
    }
    // Speedup footer: every signed run against the first shard count's,
    // when several counts ran.
    let signed: Vec<&E14Cell> = cells.iter().filter(|c| c.mode == "signed").collect();
    for base in signed.iter().filter(|c| c.shards.0 == shard_counts[0]) {
        for c in signed.iter().filter(|c| c.scale == base.scale && c.shards.0 != base.shards.0) {
            row!(
                out,
                "speedup scale {} signed: {} shards vs {}: {:.2}x",
                c.scale,
                c.shards.0,
                base.shards.0,
                base.wall_secs.0 / c.wall_secs.0.max(1e-9)
            );
        }
    }
    if cfg.quick {
        smoke(&cells);
    }
    Report { table: out, metrics: vec![("metrics", Box::new(cells))], artifacts: Vec::new() }
}

/// Renders one table row (the RIB hash column is truncated for width;
/// the JSON record carries the full 64 hex digits).
fn write_row(out: &mut String, c: &E14Cell) {
    row!(
        out,
        "{:>6} {:<7} {:>6} {:>6} {:>7} {:>8} {:>10} {:>10.0} {:>10} {:>14} {:>11} {:>12}",
        c.scale,
        c.mode,
        c.shards.0,
        c.ases,
        c.edges,
        c.origins,
        c.events,
        c.events_per_sec.0,
        c.peak_rib_entries,
        c.bytes_on_wire,
        c.short_circuits,
        &c.final_rib_sha256[..12]
    );
}

/// A cell whose numbers are not live is a broken run at any scale.
fn assert_live(c: &E14Cell) {
    let at = format!("e14 cell {}/{}/s{}", c.scale, c.mode, c.shards.0);
    let counts = [c.ases as u64, c.edges as u64, c.origins as u64, c.events];
    assert!(counts.iter().all(|&n| n > 0), "{at}: zero topology or event count in {c:?}");
    assert!(
        c.events_per_sec.0 > 0.0 && c.peak_rib_entries > 0 && c.bytes_on_wire > 0,
        "{at}: {c:?}"
    );
    assert!(is_sha256_hex(&c.final_rib_sha256), "{at}: bad RIB sha256 in {c:?}");
}

/// What only holds for the `--quick` perf record: it reaches CI's
/// scale, covers CI's shard counts, and signing changed no event.
fn smoke(cells: &[E14Cell]) {
    let top = cells.iter().map(|c| c.scale).max().unwrap_or(0);
    assert!(top >= crate::cli::QUICK_SCALE, "e14 quick scale too small: {top}");
    smoke_shards("e14", cells.iter().map(|c| c.shards.0));
    for (plain, signed) in mode_pairs(cells) {
        assert_eq!(plain.events, signed.events, "e14 scale {}: events differ by mode", plain.scale);
    }
}

/// Each plain cell with the signed cell of its (scale, shards).
fn mode_pairs(cells: &[E14Cell]) -> impl Iterator<Item = (&E14Cell, &E14Cell)> {
    cells.iter().filter(|c| c.mode == "plain").map(move |plain| {
        let signed = cells
            .iter()
            .find(|c| c.mode == "signed" && c.scale == plain.scale && c.shards.0 == plain.shards.0);
        (plain, signed.expect("e14 runs every mode at every (scale, shards)"))
    })
}
