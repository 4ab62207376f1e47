//! E18 — durability: crash-consistent checkpoint/restore and
//! deterministic replay recovery (ISSUE 10's tentpole, measured). Per
//! shard count: converge an `internet_like` run (signed substrate,
//! MRAI + dampening, a scheduled flap) uninterrupted, then again
//! writing a checkpoint at every `every_ms` slice boundary; then
//! simulate a crash by restoring the *middle* checkpoint and replaying
//! to quiescence, asserting the recovered RIB fingerprint and
//! simulator stats equal the uninterrupted run's. The forensic section
//! runs a delayed prefix hijack under COW snapshots and bisects the
//! history for the first poisoned instant (`pvr_attack::forensic`).
//!
//! `checkpoint_dir` keeps the checkpoint files (per-shard-count
//! subdirectories `s<N>/`); by default they go to a temp directory
//! that is removed afterwards. `restore` adds an operator drill: the
//! given checkpoint file is restored (at its own shard count) and replayed to
//! quiescence, reported in the table only.

use crate::recipe::{converged, e14_params, is_sha256_hex, row, smoke_shards};
use crate::{across_shards, report_struct, Cfg, Report, Wall};
use pvr_bgp::{internet_like, Asn, BgpNetwork, InstantiateOptions, LocalEvent};
use pvr_netsim::{RunLimits, SimDuration, StopReason};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// E18 never converges past this many ASes regardless of `--scale`:
/// its checkpoint/restore cycles are durability drills, not a stress
/// test (e14 covers internet scale).
const E18_MAX_SCALE: usize = 1000;

report_struct! {
    /// One measured shard-count row of E18: an uninterrupted baseline,
    /// a checkpoint-every-boundary run, and a kill-and-recover cycle
    /// from the middle checkpoint.
    pub struct E18Row {
        /// Shard count.
        pub shards: Wall<usize>,
        /// Convergence events of the uninterrupted run.
        pub events: u64,
        /// Wall-clock of the uninterrupted baseline.
        pub baseline_wall_secs: Wall<f64> => 4,
        /// Wall-clock of the checkpoint-every-boundary run.
        pub checkpointed_wall_secs: Wall<f64> => 4,
        /// `(checkpointed - baseline) / baseline`, percent.
        pub snapshot_overhead_pct: Wall<f64> => 2,
        /// COW RIB snapshots retained at quiescence.
        pub snapshots_retained: usize,
        /// Checkpoint files the sliced run wrote.
        pub checkpoints_written: usize,
        /// Size of the final checkpoint file — shard-shaped: the ENGINE
        /// section holds one calendar per shard.
        pub last_checkpoint_bytes: Wall<u64>,
        /// Wall-clock of one explicit `checkpoint()` call.
        pub checkpoint_write_secs: Wall<f64> => 6,
        /// Checkpoint serialization + write throughput.
        pub write_mb_per_sec: Wall<f64> => 2,
        /// Restore-from-middle-checkpoint + replay-to-quiescence wall
        /// clock.
        pub recovery_wall_secs: Wall<f64> => 4,
        /// Events replayed between the kill point and quiescence.
        pub replay_events: u64,
        /// Recovered run's RIB fingerprint and simulator stats equal the
        /// uninterrupted run's — the crash-consistency contract (must be
        /// true).
        pub recovered_identical: bool,
        /// Hex SHA-256 of the converged Loc-RIB.
        pub final_rib_sha256: String,
    }
}

report_struct! {
    /// E18's forensic row: the snapshot bisect over a hijack run's COW
    /// history (1 shard; all fields sim-time deterministic).
    pub struct E18Forensic {
        /// Snapshots the hijack run retained.
        pub snapshots: usize,
        /// Snapshots the binary search probed (≈ log₂ of the history).
        pub probes: usize,
        /// Capture time of the first poisoned snapshot, sim ms.
        pub first_poisoned_ms: u64,
        /// Honest ASes routing through the attacker at that instant.
        pub poisoned_ases: usize,
    }
}

report_struct! {
    /// The `metrics` object of the `e18` JSON record.
    pub struct E18Metrics {
        /// Requested AS-count scale.
        pub scale: usize,
        /// Actual AS count of the generated topology.
        pub ases: usize,
        /// Checkpoint cadence, sim-time milliseconds.
        pub checkpoint_every_ms: u64,
        /// One row per shard count.
        pub rows: Vec<E18Row>,
        /// The hijack-bisect forensic row.
        pub forensic: E18Forensic,
    }
}

pub fn run(cfg: &Cfg) -> Report {
    let scale = cfg.scale.min(E18_MAX_SCALE);
    let every_ms = cfg.checkpoint_every.max(1);
    let every = SimDuration::from_millis(every_ms);
    let shard_counts = cfg.shard_counts();

    // The same dynamic-state surface the crash-recovery property tests
    // cover: signed substrate, MRAI + jitter, dampening, and a
    // scheduled flap so the kill point crosses pending local events.
    let mut topology = internet_like(e14_params(scale), 18);
    let ases: Vec<Asn> = topology.ases().collect();
    let flapper = ases[ases.len() / 2];
    let flap_prefix = pvr_bgp::Prefix::parse("203.0.113.0/24").expect("parse");
    topology.originate(flapper, flap_prefix);
    topology.schedule(flapper, SimDuration::from_millis(40), LocalEvent::Withdraw(flap_prefix));
    topology.schedule(flapper, SimDuration::from_millis(90), LocalEvent::Announce(flap_prefix));
    let options = InstantiateOptions {
        seed: 18,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(pvr_bgp::DampeningPolicy::default()),
        ..Default::default()
    };
    let origin_table = Arc::new(topology.origin_table());

    let temp_base = std::env::temp_dir().join(format!("pvr-e18-{}", std::process::id()));
    let keep_files = cfg.checkpoint_dir.is_some();
    let base_dir = cfg.checkpoint_dir.clone().unwrap_or_else(|| temp_base.clone());

    let mut out = String::new();
    row!(
        out,
        "E18: durability — COW snapshots, checkpoint/restore, replay recovery \
         (scale {scale}, checkpoint every {every_ms} ms)"
    );
    row!(out, "(signed substrate + MRAI + dampening + a scheduled flap; per row: baseline");
    row!(out, " vs checkpoint-at-every-boundary run, then kill at the middle checkpoint,");
    row!(out, " restore, replay; `identical` = RIB fingerprint + SimStats equality with");
    row!(out, " the never-crashed run — the crash-consistency contract)");
    row!(
        out,
        "{:>6} {:>9} {:>6} {:>6} {:>11} {:>6} {:>10} {:>11} {:>9} {:>9} {:>12}",
        "shards",
        "events",
        "snaps",
        "ckpts",
        "last-ckpt-B",
        "ovh%",
        "write-MB/s",
        "recovery-ms",
        "replayed",
        "identical",
        "rib sha256"
    );

    let rows = across_shards("e18", &shard_counts, |shards| {
        // Uninterrupted baseline.
        let (baseline, baseline_wall_secs) = converged("e18 baseline", &topology, options, shards);
        let base_stats = baseline.sim.stats();
        let final_rib_sha256 = baseline.rib_fingerprint().to_hex();

        // The same run, checkpointed at every slice boundary.
        let dir = base_dir.join(format!("s{shards}"));
        let mut ck = topology.instantiate_sharded(options, shards);
        ck.install_origin_table(Arc::clone(&origin_table));
        let t = Instant::now();
        let (stop, _last) = ck
            .converge_checkpointed(RunLimits::none(), every, &dir)
            .expect("e18 checkpointed converge");
        let checkpointed_wall_secs = t.elapsed().as_secs_f64();
        assert_eq!(stop, StopReason::Quiescent, "e18 checkpointed shards {shards}");
        assert_eq!(ck.sim.stats().events, base_stats.events, "e18 slicing changed the run");
        let snapshots_retained = ck.snapshot_times().len();

        // One explicit checkpoint, timed in isolation for throughput.
        let final_path = dir.join("final.pvr");
        let t = Instant::now();
        let final_bytes = ck.checkpoint(&final_path).expect("e18 final checkpoint");
        let checkpoint_write_secs = t.elapsed().as_secs_f64();

        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("e18 checkpoint dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == "pvr")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ckpt-"))
            })
            .collect();
        files.sort();
        let checkpoints_written = files.len();
        let kill_point = &files[files.len() / 2];
        let last_checkpoint_bytes = std::fs::metadata(files.last().expect("e18 wrote checkpoints"))
            .expect("e18 checkpoint metadata")
            .len();

        // The crash: restore the middle checkpoint, replay, compare.
        let t = Instant::now();
        let mut recovered = BgpNetwork::restore(kill_point).expect("e18 restore");
        let events_at_kill = recovered.sim.stats().events;
        let stop = recovered.converge(RunLimits::none());
        let recovery_wall_secs = t.elapsed().as_secs_f64();
        assert_eq!(stop, StopReason::Quiescent, "e18 recovery shards {shards}");
        let recovered_identical = recovered.rib_fingerprint().to_hex() == final_rib_sha256
            && recovered.sim.stats() == base_stats;
        let replay_events = recovered.sim.stats().events - events_at_kill;

        let row = E18Row {
            shards: Wall(shards),
            events: base_stats.events,
            baseline_wall_secs: Wall(baseline_wall_secs),
            checkpointed_wall_secs: Wall(checkpointed_wall_secs),
            snapshot_overhead_pct: Wall(
                (checkpointed_wall_secs - baseline_wall_secs) / baseline_wall_secs.max(1e-9)
                    * 100.0,
            ),
            snapshots_retained,
            checkpoints_written,
            last_checkpoint_bytes: Wall(last_checkpoint_bytes),
            checkpoint_write_secs: Wall(checkpoint_write_secs),
            write_mb_per_sec: Wall(final_bytes as f64 / 1e6 / checkpoint_write_secs.max(1e-9)),
            recovery_wall_secs: Wall(recovery_wall_secs),
            replay_events,
            recovered_identical,
            final_rib_sha256,
        };
        row!(
            out,
            "{:>6} {:>9} {:>6} {:>6} {:>11} {:>6.1} {:>10.1} {:>11.1} {:>9} {:>9} {:>12}",
            row.shards.0,
            row.events,
            row.snapshots_retained,
            row.checkpoints_written,
            row.last_checkpoint_bytes.0,
            row.snapshot_overhead_pct.0,
            row.write_mb_per_sec.0,
            row.recovery_wall_secs.0 * 1e3,
            row.replay_events,
            if row.recovered_identical { "yes" } else { "NO" },
            &row.final_rib_sha256[..12]
        );
        assert!(row.recovered_identical, "e18 shards {shards}: recovered run diverged");
        assert_live(&row);
        if !keep_files {
            let _ = std::fs::remove_dir_all(&dir);
        }
        row
    });
    if !keep_files {
        let _ = std::fs::remove_dir_all(&temp_base);
    }

    // Forensic bisect: a delayed hijack under COW snapshots, then
    // binary-search the history for the first poisoned instant. Plain
    // substrate (no origin validation — the hijack must land) on the
    // 1 shard (the bisect reads `BgpNetwork` history).
    let mut hijack_top = internet_like(e14_params(scale), 18);
    let victim_prefix = hijack_top
        .ases()
        .collect::<Vec<_>>()
        .iter()
        .find_map(|&a| hijack_top.originated_by(a).first().copied())
        .expect("e18 forensic: an originated prefix");
    let transit = hijack_top.ases().next().expect("e18 forensic: a transit");
    let attacker = Asn(65_001);
    hijack_top.provider_customer(transit, attacker);
    hijack_top.schedule(
        attacker,
        SimDuration::from_millis(60),
        LocalEvent::Announce(victim_prefix),
    );
    let mut hijacked =
        hijack_top.instantiate(InstantiateOptions { seed: 18, ..Default::default() });
    let stop = hijacked.converge_with_snapshots(RunLimits::none(), every);
    assert_eq!(stop, StopReason::Quiescent, "e18 forensic run");
    let hit = pvr_attack::bisect_first_poisoned(&hijacked, attacker, victim_prefix)
        .expect("e18 forensic: hijack must appear in the history");
    let forensic = E18Forensic {
        snapshots: hijacked.snapshot_times().len(),
        probes: hit.probes,
        first_poisoned_ms: hit.first_poisoned_at.as_micros() / 1000,
        poisoned_ases: hit.poisoned.len(),
    };
    assert!(
        forensic.first_poisoned_ms > 0 && forensic.poisoned_ases > 0,
        "e18 forensic bisect found no hijack: {forensic:?}"
    );
    assert!(
        0 < forensic.probes && forensic.probes <= forensic.snapshots,
        "e18 forensic probe count out of range: {forensic:?}"
    );
    row!(
        out,
        "forensic bisect: hijack first visible at {} ms ({} of {} snapshots probed; \
         {} ASes poisoned)",
        forensic.first_poisoned_ms,
        forensic.probes,
        forensic.snapshots,
        forensic.poisoned_ases
    );

    // Operator drill (`--restore`): bring an arbitrary checkpoint file
    // back and replay it to quiescence. Reported in the table only —
    // it parameterizes the run, so it stays out of the metrics record.
    if let Some(path) = &cfg.restore {
        let t = Instant::now();
        let mut net = BgpNetwork::restore(path)
            .unwrap_or_else(|e| panic!("e18 --restore {}: {e}", path.display()));
        let before = net.sim.stats().events;
        let stop = net.converge(RunLimits::none());
        row!(
            out,
            "restore drill: {}: replayed {} events to {:?} in {:.1} ms, rib sha256={}",
            path.display(),
            net.sim.stats().events - before,
            stop,
            t.elapsed().as_secs_f64() * 1e3,
            &net.rib_fingerprint().to_hex()[..12]
        );
    }

    row!(out, "(expected: every row identical=yes — restore+replay is byte-equal to the");
    row!(out, " uninterrupted run; events/snaps/ckpts/replayed/sha identical across shard");
    row!(out, " counts; checkpoint bytes and all wall-clock columns are engine-local)");
    if cfg.quick {
        smoke_shards("e18", rows.iter().map(|r| r.shards.0));
    }
    let metrics = E18Metrics {
        scale,
        ases: topology.as_count(),
        checkpoint_every_ms: every_ms,
        rows,
        forensic,
    };
    Report { table: out, metrics: vec![("metrics", Box::new(metrics))], artifacts: Vec::new() }
}

/// The durability layer must actually have checkpointed and recovered,
/// at any scale: live snapshot/checkpoint/replay counts and a real
/// converged-RIB hash.
fn assert_live(r: &E18Row) {
    let at = format!("e18 s{}", r.shards.0);
    let counts = [r.snapshots_retained as u64, r.checkpoints_written as u64, r.replay_events];
    assert!(r.events > 0 && counts.iter().all(|&n| n > 0), "{at}: zero count in {r:?}");
    assert!(r.last_checkpoint_bytes.0 > 0 && r.write_mb_per_sec.0 > 0.0, "{at}: nothing written");
    assert!(is_sha256_hex(&r.final_rib_sha256), "{at}: bad RIB sha256 in {r:?}");
}
