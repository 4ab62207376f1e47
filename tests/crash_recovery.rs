//! The durability layer's recovery contract (ISSUE 10): kill a
//! converging run at an arbitrary checkpoint instant, restore from the
//! file, replay — and the recovered run is **byte-identical** to one
//! that never crashed. Asserted over RIB fingerprints, simulator
//! stats, and full metrics snapshots; at shard counts 1/2/4/8; with
//! and without churn schedules and fault plans in
//! the path. Plus the corrupt-checkpoint hardening: truncation, bit
//! flips, and version bumps anywhere in the file must surface as typed
//! errors — never a panic, never a partially-restored network.

use proptest::prelude::*;
use pvr::bgp::{
    internet_like, Asn, BgpNetwork, CheckpointError, DampeningPolicy, InstantiateOptions,
    InternetParams, LocalEvent, Malice, Prefix, Route, SignedRoute, Topology, CKPT_MAGIC,
    CKPT_VERSION,
};
use pvr::crypto::drbg::HmacDrbg;
use pvr::crypto::encoding::{Reader, Wire, WireError};
use pvr::netsim::{Fault, FaultPlan, RunLimits, SimDuration, SimTime, StopReason};
use pvr::store::{read_container, write_header, write_section, StoreError, SECTION_OVERHEAD};
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pvr-crash-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}.pvr"))
}

/// A fresh, empty directory of its own.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = temp_path(tag).with_extension("d");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Every file in `dir`, by name, with its bytes.
fn files_in(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap_or_default())
        })
        .collect();
    files.sort();
    files
}

fn small_internet(seed: u64) -> Topology {
    let mut topology = internet_like(
        InternetParams {
            tier1: 3,
            tier2: 5,
            stubs: 12,
            t2_peering_prob: 0.25,
            ..InternetParams::default()
        },
        seed,
    );
    // Churn in the path: a couple of scheduled flaps so the recovered
    // run has pending local events and MRAI state to get right.
    let ases: Vec<Asn> = topology.ases().collect();
    let flapper = ases[ases.len() / 2];
    let prefix = Prefix::parse("203.0.113.0/24").expect("parse");
    topology.originate(flapper, prefix);
    topology.schedule(flapper, SimDuration::from_millis(40), LocalEvent::Withdraw(prefix));
    topology.schedule(flapper, SimDuration::from_millis(90), LocalEvent::Announce(prefix));
    topology
}

fn fault_plan(net_node_of: &dyn Fn(Asn) -> usize, ases: &[Asn], seed: u64) -> FaultPlan {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "crash-recovery faults");
    let mut plan = FaultPlan::new();
    let a = ases[rng.index(ases.len())];
    let b = ases[rng.index(ases.len())];
    if a != b {
        plan.push(
            SimTime::ZERO + SimDuration::from_millis(30 + rng.below(100)),
            Fault::SessionReset { a: net_node_of(a), b: net_node_of(b) },
        );
    }
    plan
}

/// One full kill-and-recover cycle at `shards`: baseline run vs.
/// run-until-`kill_at` → checkpoint → drop ("crash") → restore →
/// replay. All three observables must match the uninterrupted run at
/// the same shard count exactly, and the recovered RIB must equal the
/// 1-shard run's (shard-count invariance survives the crash).
fn assert_recovery(
    topology: &Topology,
    options: InstantiateOptions,
    shards: usize,
    kill_at: SimTime,
) {
    let mut one = topology.instantiate(options);
    assert_eq!(one.converge(RunLimits::none()), StopReason::Quiescent);

    let mut baseline = topology.instantiate_sharded(options, shards);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path(&format!("s{shards}-{}-{}", options.seed, kill_at.as_micros()));
    let mut victim = topology.instantiate_sharded(options, shards);
    victim.converge(RunLimits::until(kill_at));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim); // the crash

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.sim.shard_count(), shards, "restore must keep the shard shape");
    // What a router derives on load (the suppressed-pair count among
    // it) must agree with the state it was handed, mid-run.
    for asn in topology.ases() {
        recovered.router(asn).check_invariants().expect("restored RIB invariants");
    }
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);

    assert_eq!(
        recovered.rib_fingerprint(),
        baseline.rib_fingerprint(),
        "recovered RIBs diverge from the uninterrupted run ({shards} shards, kill at {kill_at:?})"
    );
    assert_eq!(recovered.sim.stats(), baseline.sim.stats(), "SimStats diverge after recovery");
    assert_eq!(
        recovered.metrics_snapshot("plain"),
        baseline.metrics_snapshot("plain"),
        "metrics snapshots diverge after recovery"
    );
    assert_eq!(recovered.rib_fingerprint(), one.rib_fingerprint());
}

#[test]
fn serial_kill_and_recover_plain() {
    let topology = small_internet(301);
    let options = InstantiateOptions { seed: 301, ..Default::default() };
    assert_recovery(&topology, options, 1, SimTime(60_000));
}

#[test]
fn serial_kill_and_recover_signed_with_mrai_dampening() {
    // The full dynamic-state surface in one run: attestation chains,
    // verify-cache verdicts, jittered MRAI timers, dampening penalties.
    let topology = small_internet(302);
    let options = InstantiateOptions {
        seed: 302,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        ..Default::default()
    };
    assert_recovery(&topology, options, 1, SimTime(55_000));
}

#[test]
fn serial_kill_and_recover_with_observability() {
    // Timelines and journals are run state too: a recovered run's
    // trace must cover the whole run, not the post-restore suffix.
    let topology = small_internet(303);
    let options = InstantiateOptions {
        seed: 303,
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 64,
        ..Default::default()
    };
    let mut baseline = topology.instantiate(options);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path("obs");
    let mut victim = topology.instantiate(options);
    victim.converge(RunLimits::until(SimTime(50_000)));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.trace_jsonl(), baseline.trace_jsonl(), "journals diverge");
    assert_eq!(
        recovered.convergence_timeline(),
        baseline.convergence_timeline(),
        "timelines diverge"
    );
}

#[test]
fn sharded_kill_and_recover_across_shard_counts() {
    let topology = small_internet(304);
    let options = InstantiateOptions { seed: 304, ..Default::default() };
    for shards in [1, 2, 4, 8] {
        assert_recovery(&topology, options, shards, SimTime(60_000));
    }
}

#[test]
fn kill_and_recover_with_fault_plan_pending() {
    // Checkpoint lands *before* the scheduled faults fire: the
    // unapplied plan rides in the engine section and fires on replay.
    let topology = small_internet(305);
    let options = InstantiateOptions { seed: 305, ..Default::default() };
    let ases: Vec<Asn> = topology.ases().collect();

    let mut baseline = topology.instantiate(options);
    let plan = fault_plan(&|a| baseline.node_of(a), &ases, 305);
    assert!(!plan.is_empty());
    baseline.install_fault_plan(plan);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path("faults");
    let mut victim = topology.instantiate(options);
    let plan = fault_plan(&|a| victim.node_of(a), &ases, 305);
    victim.install_fault_plan(plan);
    victim.converge(RunLimits::until(SimTime(20_000)));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.rib_fingerprint(), baseline.rib_fingerprint());
    assert_eq!(recovered.sim.stats(), baseline.sim.stats());
    assert!(recovered.sim.stats().session_resets > 0, "the pending fault must have fired");
}

#[test]
fn time_travel_queries_answer_from_history() {
    let mut topology = Topology::new();
    let (a, b, c) = (Asn(1), Asn(2), Asn(3));
    topology.provider_customer(a, b).provider_customer(b, c);
    let prefix = Prefix::parse("198.51.100.0/24").expect("parse");
    topology.originate(c, prefix);
    topology.schedule(c, SimDuration::from_millis(50), LocalEvent::Withdraw(prefix));

    let options = InstantiateOptions { seed: 7, ..Default::default() };
    let mut net = topology.instantiate(options);
    let reason = net.converge_with_snapshots(RunLimits::none(), SimDuration::from_millis(10));
    assert_eq!(reason, StopReason::Quiescent);

    let times = net.snapshot_times();
    assert!(times.len() >= 2, "expected several snapshots, got {times:?}");
    // While the route was up, A reached the prefix through B...
    let early = net.route_at(a, prefix, SimTime(40_000)).expect("route existed at 40 ms");
    assert_eq!(early.learned_from, Some(b));
    // ...and after the withdraw propagated, history says it vanished.
    let last = *times.last().expect("nonempty");
    assert_eq!(net.route_at(a, prefix, last), None, "route must be gone at quiescence");
}

/// The RIB fingerprint is a content address: it commits to the trie's
/// node encoding and domain tags, which checkpoint files and every
/// e14/e18 `final_rib_sha256` also carry. Pinned here for a fixed
/// (topology, seed) so a change to that encoding is loud, not silent —
/// and taken twice, from scratch and layered on a snapshot history that
/// saw the flapping prefix vanish and return, so the batched capture's
/// removes and re-sets must land on the same address as a fresh build.
#[test]
fn rib_fingerprint_is_pinned() {
    const GOLDEN: &str = "4640a0be25b182b9d16ab934d5e974bed1b4df86611f36e983bbc3688fd8460e";
    let topology = small_internet(301);
    let options = InstantiateOptions { seed: 301, ..Default::default() };

    let mut fresh = topology.instantiate(options);
    assert_eq!(fresh.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(fresh.rib_fingerprint().to_hex(), GOLDEN);

    let mut layered = topology.instantiate(options);
    let reason = layered.converge_with_snapshots(RunLimits::none(), SimDuration::from_millis(10));
    assert_eq!(reason, StopReason::Quiescent);
    assert!(layered.snapshot_times().len() > 9, "the history must span the 40-90 ms flap");
    assert_eq!(layered.rib_fingerprint().to_hex(), GOLDEN);
}

/// The checkpoint file is a format, and this pins it: the SHA-256 of a
/// whole `PVRCKPT3` file, for a network whose router sections carry
/// every kind of dynamic state at once — attestation chains, a filled
/// Adj-RIB-Out, MRAI buffers and jitter DRBGs, dampening penalties, an
/// announcement parked behind a suppression, a flapping prefix, and one
/// session down. Re-pinned for the `PVRCKPT2` → `PVRCKPT3` format bump
/// (each router's RIB written as one record per prefix cell, its
/// timeline in the engine's codec): measured on that commit, the META,
/// ENGINE, CACHE and STORE payloads hash the same as on its parent,
/// whose whole-file value was `b671f66c…d854`, and ROUTERS shrank from
/// 167 513 to 150 704 bytes. The bump before, `PVRCKPT1` → `PVRCKPT2`,
/// moved only the header, META and ENGINE. Any change to what a router
/// writes, or to the order it writes it in, lands here.
#[test]
fn checkpoint_file_bytes_are_pinned() {
    const GOLDEN: &str = "912619faad6b7206d771d309b72acf5fbdde9f27668d9461aaeb224837c938b1";
    let mut topology = small_internet(310);
    // `small_internet` withdraws the flapping prefix at 40 ms and brings
    // it back at 90 ms; three more flaps in between push its provider's
    // penalty over the suppress threshold, so the announcement at 90 ms
    // is parked behind dampening when the checkpoint lands at 97 ms,
    // with MRAI buffers still holding the tail of the last withdraw.
    let ases: Vec<Asn> = topology.ases().collect();
    let flapper = ases[ases.len() / 2];
    let prefix = Prefix::parse("203.0.113.0/24").expect("parse");
    for (ms, up) in [(48, true), (56, false), (64, true), (72, false), (80, true), (86, false)] {
        let event = if up { LocalEvent::Announce(prefix) } else { LocalEvent::Withdraw(prefix) };
        topology.schedule(flapper, SimDuration::from_millis(ms), event);
    }
    let options = InstantiateOptions {
        seed: 310,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        ..Default::default()
    };
    let mut net = topology.instantiate(options);
    // One tier-1 session goes down at 30 ms and stays down.
    let mut plan = FaultPlan::new();
    plan.push(
        SimTime::ZERO + SimDuration::from_millis(30),
        Fault::LinkDown { a: net.node_of(ases[0]), b: net.node_of(ases[1]) },
    );
    net.install_fault_plan(plan);
    assert_eq!(net.converge(RunLimits::until(SimTime(97_000))), StopReason::Deadline);
    assert_eq!(net.sim.stats().link_down, 1, "the session must be down at the checkpoint");

    let path = temp_path("golden-bytes");
    net.checkpoint(&path).expect("checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    assert_eq!(pvr::crypto::sha256::sha256(&bytes).to_hex(), GOLDEN);
}

/// The pipelined writer changes when a checkpoint's bytes land, never
/// what they are: every file `converge_checkpointed` writes equals the
/// one a sequential `converge(until(boundary))` + `checkpoint` loop
/// writes at the same boundary, at one shard and at two.
#[test]
fn converge_checkpointed_writes_the_sequential_loops_bytes() {
    let topology = small_internet(311);
    let options = InstantiateOptions {
        seed: 311,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        ..Default::default()
    };
    let every = SimDuration::from_millis(10);
    for shards in [1, 2] {
        let piped = temp_dir(&format!("piped-{shards}"));
        let mut net = topology.instantiate_sharded(options, shards);
        let (reason, last) =
            net.converge_checkpointed(RunLimits::none(), every, &piped).expect("pipelined run");
        assert_eq!(reason, StopReason::Quiescent);

        let sequential = temp_dir(&format!("sequential-{shards}"));
        let mut net = topology.instantiate_sharded(options, shards);
        let mut boundary = SimTime::ZERO;
        loop {
            boundary = boundary + every;
            let stop = net.converge(RunLimits::until(boundary));
            let name = format!("ckpt-{:08}.pvr", boundary.as_micros() / 1000);
            net.checkpoint(&sequential.join(name)).expect("sequential checkpoint");
            if stop != StopReason::Deadline {
                break;
            }
        }

        let (piped_files, sequential_files) = (files_in(&piped), files_in(&sequential));
        assert!(piped_files.len() > 5, "the run must span several boundaries");
        let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect();
        let (piped_names, sequential_names): (Vec<String>, Vec<String>) =
            (names(&piped_files), names(&sequential_files));
        assert_eq!(piped_names, sequential_names, "{shards} shards: different boundaries");
        for ((name, piped), (_, sequential)) in piped_files.iter().zip(&sequential_files) {
            assert!(piped == sequential, "{shards} shards: {name} differs from the loop's");
        }
        assert_eq!(last, piped.join(piped_names.last().expect("a file")));
    }
}

/// A directory the writer cannot write into fails the run with a typed
/// error, promptly, and leaves no `.tmp` behind.
#[test]
fn converge_checkpointed_into_an_unwritable_directory_fails_typed() {
    let topology = small_internet(312);
    let options = InstantiateOptions { seed: 312, ..Default::default() };
    let every = SimDuration::from_millis(10);

    // A directory that cannot be created: its parent is a file.
    let file = temp_path("not-a-directory");
    std::fs::write(&file, b"a file").expect("write file");
    let mut net = topology.instantiate(options);
    let err = net.converge_checkpointed(RunLimits::none(), every, &file.join("ckpt")).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");

    // A directory whose first checkpoint cannot be renamed into place:
    // the writer thread fails, and the next boundary reports it.
    let dir = temp_dir("blocked");
    let blocker = dir.join("ckpt-00000010.pvr");
    std::fs::create_dir_all(&blocker).expect("create blocker");
    std::fs::write(blocker.join("keep"), b"non-empty").expect("fill blocker");
    let mut net = topology.instantiate(options);
    let err = net.converge_checkpointed(RunLimits::none(), every, &dir).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
    assert!(
        net.sim.now() <= SimTime::ZERO + every + every,
        "the run went on past one slice after the failed checkpoint: {:?}",
        net.sim.now()
    );
    let names: Vec<String> = files_in(&dir).into_iter().map(|f| f.0).collect();
    assert_eq!(names, ["ckpt-00000010.pvr"], "a .tmp or a later file was left behind");
}

/// A rename that fails (the target is a non-empty directory) is an I/O
/// error, and the `.tmp` it was renaming is gone.
#[test]
fn failed_checkpoint_write_removes_its_tmp() {
    let topology = small_internet(313);
    let mut net = topology.instantiate(InstantiateOptions { seed: 313, ..Default::default() });
    net.converge(RunLimits::until(SimTime(20_000)));
    let dir = temp_dir("tmp-cleanup");
    let target = dir.join("target.pvr");
    std::fs::create_dir_all(&target).expect("create target directory");
    std::fs::write(target.join("keep"), b"non-empty").expect("fill target");
    let err = net.checkpoint(&target).expect_err("the target is a directory");
    assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
    let names: Vec<String> = files_in(&dir).into_iter().map(|f| f.0).collect();
    assert_eq!(names, ["target.pvr"], "the .tmp was left behind");
}

/// Three sections, the first and third damaged: the report names the
/// first in file order wherever the largest one — whose digest the
/// helper thread checks — sits: damaged and first, intact in between,
/// or damaged and last.
#[test]
fn first_damaged_section_is_reported_wherever_the_largest_is() {
    let (small, large) = (100, 10_000);
    for sizes in [[large, small, small], [small, large, small], [small, small, large]] {
        let mut bytes = Vec::new();
        write_header(&CKPT_MAGIC, CKPT_VERSION, &mut bytes);
        let mut payload_at = Vec::new();
        for (tag, len) in (1u8..).zip(sizes) {
            // A section's payload follows its tag and length.
            payload_at.push(bytes.len() + SECTION_OVERHEAD - pvr::crypto::sha256::DIGEST_LEN);
            write_section(tag, &vec![tag; len], &mut bytes);
        }
        bytes[payload_at[0]] ^= 0x01;
        bytes[payload_at[2] + sizes[2] - 1] ^= 0x80;
        assert_eq!(
            read_container(&bytes, &CKPT_MAGIC, CKPT_VERSION),
            Err(StoreError::SectionHashMismatch { tag: 1 }),
            "sizes {sizes:?}"
        );
        let err = must_fail(restore_mutilated(bytes, "two-damaged"), "two damaged sections");
        assert!(
            matches!(err, CheckpointError::Store(StoreError::SectionHashMismatch { tag: 1 })),
            "sizes {sizes:?}: got {err:?}"
        );
    }
}

#[test]
fn checkpoint_refuses_private_verification_and_malice() {
    let topology = small_internet(306);
    let pvr_options = InstantiateOptions {
        seed: 306,
        signed: true,
        key_bits: 512,
        private_verification: true,
        ..Default::default()
    };
    let mut net = topology.instantiate(pvr_options);
    let err = net.checkpoint(&temp_path("refused-pvr")).expect_err("PVR mode must refuse");
    assert!(matches!(err, CheckpointError::Refused(_)), "wrong error: {err:?}");

    let options = InstantiateOptions { seed: 306, ..Default::default() };
    let mut net = topology.instantiate(options);
    let victim = topology.ases().next().expect("nonempty");
    net.router_mut(victim).set_malice(Malice { leak_all: true });
    let err = net.checkpoint(&temp_path("refused-malice")).expect_err("malice must refuse");
    assert!(matches!(err, CheckpointError::Refused(_)), "wrong error: {err:?}");
}

/// A checkpoint folds "now" into the RIB snapshot history; one that is
/// refused or fails must not have done so.
#[test]
fn failed_checkpoint_leaves_no_snapshot_behind() {
    let topology = small_internet(309);
    let options = InstantiateOptions { seed: 309, ..Default::default() };
    let mut net = topology.instantiate(options);
    net.converge_with_snapshots(RunLimits::until(SimTime(30_000)), SimDuration::from_millis(10));
    net.converge(RunLimits::until(SimTime(40_000)));
    let before = net.snapshot_times();
    // A snapshot now would be a new one, not a replacement of the last.
    assert!(!before.is_empty() && *before.last().unwrap() < net.sim.now());

    // One router with a table of its own: META cannot say which table
    // the restored network should install.
    let odd = topology.ases().next().expect("nonempty");
    net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
    net.router_mut(odd).set_origin_table(std::sync::Arc::new(topology.origin_table()));
    let err = net.checkpoint(&temp_path("refused-tables")).expect_err("divergent origin tables");
    assert!(matches!(err, CheckpointError::Refused(_)), "wrong error: {err:?}");
    assert_eq!(net.snapshot_times(), before, "a refused checkpoint took a snapshot");

    // The engine will not save its state while it records a trace.
    net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
    net.sim.enable_trace();
    let err = net.checkpoint(&temp_path("failed-trace")).expect_err("trace recording is on");
    assert!(matches!(err, CheckpointError::State(_)), "wrong error: {err:?}");
    assert_eq!(net.snapshot_times(), before, "a failed checkpoint took a snapshot");
}

#[test]
fn restore_reinstalls_the_origin_table() {
    let topology = small_internet(307);
    let options = InstantiateOptions { seed: 307, ..Default::default() };
    let mut net = topology.instantiate(options);
    net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
    net.converge(RunLimits::until(SimTime(30_000)));
    let path = temp_path("origin-table");
    net.checkpoint(&path).expect("checkpoint");
    let baseline_fp = {
        assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
        net.rib_fingerprint()
    };
    drop(net);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    // Spot-check the table is live again, then replay to equality.
    let any = topology.ases().next().expect("nonempty");
    assert_eq!(
        recovered.router(any).stats().origin_failures,
        0,
        "sanity: no rejections in a well-formed run"
    );
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.rib_fingerprint(), baseline_fp);
}

// ---------------------------------------------------------------------
// Corrupt-checkpoint hardening: no input may panic or half-apply.

/// A small converged checkpoint to mutilate.
fn checkpoint_bytes_fixture() -> Vec<u8> {
    let topology = small_internet(308);
    let options = InstantiateOptions { seed: 308, ..Default::default() };
    // Per thread: tests run in parallel, and two of them writing one
    // path share its `.tmp` and rename it from under each other.
    let path = temp_path(&format!("fixture-{:?}", std::thread::current().id()));
    let mut net = topology.instantiate(options);
    net.converge(RunLimits::until(SimTime(40_000)));
    net.checkpoint(&path).expect("checkpoint");
    std::fs::read(&path).expect("read fixture")
}

fn restore_mutilated(bytes: Vec<u8>, tag: &str) -> Result<BgpNetwork, CheckpointError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write mutilated");
    BgpNetwork::restore(&path)
}

/// `expect_err` without requiring `Debug` on the network type.
fn must_fail<T>(res: Result<T, CheckpointError>, what: &str) -> CheckpointError {
    match res {
        Ok(_) => panic!("{what}: restore unexpectedly succeeded"),
        Err(e) => e,
    }
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let bytes = checkpoint_bytes_fixture();
    // Sweep truncation points across the whole file (step keeps the
    // test fast; includes 0 and the last byte).
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(997).collect();
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = must_fail(
            restore_mutilated(bytes[..cut].to_vec(), &format!("trunc-{cut}")),
            "truncated checkpoint",
        );
        assert!(
            !matches!(err, CheckpointError::Io(_)),
            "truncation at {cut} must be a corruption error, got {err:?}"
        );
    }
}

#[test]
fn bit_flips_anywhere_are_typed_errors() {
    let bytes = checkpoint_bytes_fixture();
    let mut rng = HmacDrbg::from_u64_labeled(308, "bit flip fuzz");
    for i in 0..64 {
        let at = rng.index(bytes.len());
        let bit = 1u8 << rng.below(8);
        let mut bad = bytes.clone();
        bad[at] ^= bit;
        // Every section is hash-trailed, so any flip is either caught
        // by a section hash, the store's node hashes, or a decoder.
        if let Err(err) = restore_mutilated(bad, &format!("flip-{i}")) {
            assert!(!matches!(err, CheckpointError::Io(_)), "flip at {at} gave {err:?}");
        } else {
            // A flip in pure padding space cannot happen: the format
            // has no padding. Reaching here means a corrupted file
            // restored silently.
            panic!("bit flip at byte {at} (mask {bit:#x}) restored successfully");
        }
    }
}

#[test]
fn version_bump_is_rejected() {
    let mut bytes = checkpoint_bytes_fixture();
    // Header: 8 bytes magic ‖ 4 bytes LE version.
    bytes[8] = bytes[8].wrapping_add(1);
    let err = must_fail(restore_mutilated(bytes, "version-bump"), "future version");
    assert!(!matches!(err, CheckpointError::Io(_)), "got {err:?}");
}

#[test]
fn restore_reads_the_shard_count_from_the_file() {
    // There is one network type and one ENGINE layout: whatever shard
    // count wrote the file, `restore` rebuilds that shape from META and
    // the replay lands on the uninterrupted run's fingerprint.
    let topology = small_internet(309);
    let options = InstantiateOptions { seed: 309, ..Default::default() };
    let mut uninterrupted = topology.instantiate(options);
    assert_eq!(uninterrupted.converge(RunLimits::none()), StopReason::Quiescent);
    for shards in [1, 2, 4] {
        let path = temp_path(&format!("shape-{shards}"));
        let mut net = topology.instantiate_sharded(options, shards);
        net.converge(RunLimits::until(SimTime(30_000)));
        net.checkpoint(&path).expect("checkpoint");
        let mut restored = BgpNetwork::restore(&path).expect("restore");
        assert_eq!(restored.sim.shard_count(), shards);
        assert_eq!(restored.converge(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(restored.rib_fingerprint(), uninterrupted.rib_fingerprint(), "{shards} shards");
        assert_eq!(restored.sim.stats(), uninterrupted.sim.stats(), "{shards} shards");
    }
}

/// `fixture` under the header `magic ‖ version`.
fn with_header(fixture: &[u8], magic: &[u8; 8], version: u32) -> Vec<u8> {
    let mut header = Vec::new();
    write_header(magic, version, &mut header);
    let mut bytes = fixture.to_vec();
    bytes[..header.len()].copy_from_slice(&header);
    bytes
}

/// An older format is refused at the header, before any payload is
/// decoded — as a typed error, never `Io` and never a panic — whether
/// its own magic or only its version number says so.
fn assert_old_header_refused(magic: &[u8; 8], version: u32) {
    let fixture = checkpoint_bytes_fixture();
    let old = with_header(&fixture, magic, version);
    let err = must_fail(restore_mutilated(old, &format!("v{version}-header")), "old file");
    assert!(matches!(err, CheckpointError::Store(StoreError::BadMagic)), "got {err:?}");
    let old = with_header(&fixture, &CKPT_MAGIC, version);
    let err = must_fail(restore_mutilated(old, &format!("v{version}-version")), "old header");
    assert!(
        matches!(err, CheckpointError::Store(StoreError::UnsupportedVersion(v)) if v == version),
        "got {err:?}"
    );
}

#[test]
fn version_1_header_is_a_typed_error() {
    // `PVRCKPT1` files carried an engine-kind byte and one of two ENGINE
    // layouts.
    assert_old_header_refused(b"PVRCKPT1", 1);
}

#[test]
fn version_2_header_is_a_typed_error() {
    // `PVRCKPT2` files wrote each router's RIB as three lists —
    // Adj-RIB-In, Loc-RIB, one Adj-RIB-Out entry per holder — and its
    // local originations as a fourth.
    assert_old_header_refused(b"PVRCKPT2", 2);
}

/// The checkpoint `fixture` with the payload of section `tag` passed
/// through `edit` and every section re-framed with a valid hash: what
/// the truncation and bit-flip sweeps never produce, a *well-framed*
/// hostile file, so only the decoders' own validation stands between
/// the edit and a restored network.
fn with_section(fixture: &[u8], tag: u8, edit: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let sections = read_container(fixture, &CKPT_MAGIC, CKPT_VERSION).expect("fixture parses");
    let mut out = Vec::new();
    write_header(&CKPT_MAGIC, CKPT_VERSION, &mut out);
    for section in sections {
        if section.tag == tag {
            write_section(tag, &edit(section.payload), &mut out);
        } else {
            write_section(section.tag, section.payload, &mut out);
        }
    }
    out
}

/// One cell record of a router's ROUTERS state, in the fields these
/// tests edit. `selection` is `None` for nothing selected, `Some(None)`
/// for the local origination and `Some(Some(n))` for neighbor `n`'s
/// candidate.
struct Record {
    prefix: Prefix,
    candidates: Vec<(Asn, Route)>,
    selection: Option<Option<Asn>>,
    local: Option<Route>,
    holders: Vec<Asn>,
}

impl Record {
    fn decode(r: &mut Reader<'_>) -> Record {
        let prefix = Prefix::decode(r).expect("prefix");
        let candidates = Vec::decode(r).expect("candidates");
        let selection = match u8::decode(r).expect("selection tag") {
            0 => None,
            1 => Some(Some(Asn::decode(r).expect("selected neighbor"))),
            _ => Some(None),
        };
        let local = Option::decode(r).expect("local origination");
        let holders = Vec::decode(r).expect("holders");
        Record { prefix, candidates, selection, local, holders }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.prefix.encode(buf);
        self.candidates.encode(buf);
        match self.selection {
            None => buf.push(0),
            Some(Some(n)) => {
                buf.push(1);
                n.encode(buf);
            }
            Some(None) => buf.push(2),
        }
        self.local.encode(buf);
        self.holders.encode(buf);
    }
}

/// The checkpoint `fixture` with the first router's cell records and
/// attestation chains edited.
fn with_first_router(
    fixture: &[u8],
    edit: impl Fn(&mut Vec<Record>, &mut Vec<(Asn, SignedRoute)>),
) -> Vec<u8> {
    const SEC_ROUTERS: u8 = 3;
    with_section(fixture, SEC_ROUTERS, |payload| {
        // ROUTERS: count, then per router its ASN and dynamic state,
        // which opens with the cell records (a count, then each record)
        // and the chains as `(neighbor, signed route)` pairs.
        let mut r = Reader::new(payload);
        let offset = |r: &Reader<'_>| payload.len() - r.remaining();
        u32::decode(&mut r).expect("router count");
        Asn::decode(&mut r).expect("first router");
        let start = offset(&r);
        let count = u32::decode(&mut r).expect("cell count");
        let mut records: Vec<Record> = (0..count).map(|_| Record::decode(&mut r)).collect();
        let mut chains = Vec::<(Asn, SignedRoute)>::decode(&mut r).expect("chains");
        let end = offset(&r);
        edit(&mut records, &mut chains);
        let mut edited = payload[..start].to_vec();
        (records.len() as u32).encode(&mut edited);
        for record in &records {
            record.encode(&mut edited);
        }
        chains.encode(&mut edited);
        edited.extend_from_slice(&payload[end..]);
        edited
    })
}

#[test]
fn inconsistent_adj_rib_out_is_a_typed_error() {
    // Unedited, the re-framed file is the fixture and restores.
    let fixture = checkpoint_bytes_fixture();
    let intact = with_first_router(&fixture, |_, _| {});
    assert_eq!(intact, fixture);
    restore_mutilated(intact, "adj-out-intact").expect("intact fixture restores");

    // A record lists the neighbors holding the cell's one advertised
    // route, ascending; holders that repeat, run backwards or name a
    // stranger have no faithful in-memory form.
    type Edit = fn(&mut Vec<Record>);
    fn holders(records: &mut [Record]) -> &mut Vec<Asn> {
        let record = records.iter_mut().find(|record| record.holders.len() >= 2);
        &mut record.expect("the first router advertises a prefix to two neighbors").holders
    }
    let cases: [(&str, Edit, &str); 3] = [
        (
            "adj-out-duplicate",
            |records| {
                let holders = holders(records);
                holders.insert(1, holders[0]);
            },
            "holder list not strictly ascending",
        ),
        (
            "adj-out-unsorted",
            |records| holders(records).reverse(),
            "holder list not strictly ascending",
        ),
        (
            "adj-out-stranger",
            |records| *holders(records).last_mut().expect("holders") = Asn(4_000_000),
            "holder is not a configured neighbor",
        ),
    ];
    for (tag, edit, why) in cases {
        let bad = with_first_router(&fixture, |records, _| edit(records));
        let err = must_fail(restore_mutilated(bad, tag), tag);
        assert!(
            matches!(err, CheckpointError::Wire(WireError::Invalid(msg)) if msg == why),
            "{tag}: got {err:?}"
        );
    }
}

#[test]
fn loc_rib_entry_that_is_no_stored_route_is_a_typed_error() {
    let fixture = checkpoint_bytes_fixture();

    // A record names its selection — a neighbor's candidate or the
    // local origination — and restore installs it only where it names a
    // present entry and a from-scratch decision picks that entry too:
    // anything else is a RIB no run could be holding.
    type Edit = fn(&mut Vec<Record>);
    fn learned(records: &mut [Record]) -> &mut Record {
        let learned = |record: &&mut Record| {
            matches!(record.selection, Some(Some(_))) && record.local.is_none()
        };
        records.iter_mut().find(learned).expect("a learned selection")
    }
    fn contested(records: &mut [Record]) -> &mut Record {
        let contested = |record: &&mut Record| record.candidates.len() >= 2;
        records.iter_mut().find(contested).expect("a prefix heard from two neighbors")
    }
    let absent = "selection names an absent entry";
    let undecided = "selection differs from a from-scratch decision";
    let cases: [(&str, Edit, &str); 4] = [
        (
            "loc-rib-stranger",
            |records| learned(records).selection = Some(Some(Asn(4_000_000))),
            absent,
        ),
        ("loc-rib-not-local", |records| learned(records).selection = Some(None), absent),
        ("loc-rib-nothing", |records| learned(records).selection = None, undecided),
        (
            "loc-rib-loser",
            |records| {
                let record = contested(records);
                let winner = record.selection.flatten();
                let loser = record.candidates.iter().map(|&(n, _)| n).find(|&n| Some(n) != winner);
                record.selection = Some(loser);
            },
            undecided,
        ),
    ];
    for (tag, edit, why) in cases {
        let bad = with_first_router(&fixture, |records, _| edit(records));
        let err = must_fail(restore_mutilated(bad, tag), tag);
        assert!(
            matches!(err, CheckpointError::Wire(WireError::Invalid(msg)) if msg == why),
            "{tag}: got {err:?}"
        );
    }
}

/// A signed router re-signs each route it exports over the chain that
/// came with the candidate, and panics where that chain is missing. A
/// well-framed signed file missing one chain used to restore, and the
/// first export of that prefix — a session reset toward a neighbor is
/// enough, through `session_up`'s re-announcement — hit that panic.
/// Restore now refuses it, a chain without its candidate, and any chain
/// in a plain network.
#[test]
fn attestation_chains_that_miss_their_candidates_are_typed_errors() {
    let topology = small_internet(314);
    let options =
        InstantiateOptions { seed: 314, signed: true, key_bits: 512, ..Default::default() };
    let mut net = topology.instantiate(options);
    net.converge(RunLimits::until(SimTime(40_000)));
    let path = temp_path("signed-fixture");
    net.checkpoint(&path).expect("checkpoint");
    let signed = std::fs::read(&path).expect("read signed fixture");
    assert_eq!(with_first_router(&signed, |_, _| {}), signed);
    restore_mutilated(signed.clone(), "chains-intact").expect("intact signed file restores");

    let first_chain = std::cell::RefCell::new(None);
    with_first_router(&signed, |_, chains| *first_chain.borrow_mut() = chains.first().cloned());
    let first_chain = first_chain.into_inner().expect("the first router holds a chain");
    let stranger = Asn(4_000_000);
    let cases = [
        (&signed, "chain-dropped", "candidate without an attestation chain"),
        (&signed, "chain-stranger", "attestation chain without a candidate"),
        (&checkpoint_bytes_fixture(), "chain-plain", "attestation chain in plain mode"),
    ];
    for (file, tag, why) in cases {
        let bad = with_first_router(file, |_, chains| match tag {
            "chain-dropped" => drop(chains.remove(0)),
            "chain-stranger" => chains.push((stranger, first_chain.1.clone())),
            _ => chains.push(first_chain.clone()),
        });
        let err = must_fail(restore_mutilated(bad, tag), tag);
        assert!(
            matches!(err, CheckpointError::Wire(WireError::Invalid(msg)) if msg == why),
            "{tag}: got {err:?}"
        );
    }
}

/// The fixture with META's options edited.
fn with_meta_options(fixture: &[u8], edit: impl Fn(&mut InstantiateOptions)) -> Vec<u8> {
    const SEC_META: u8 = 1;
    with_section(fixture, SEC_META, |payload| {
        // META: shard count, options, then topology and origin table.
        let mut r = Reader::new(payload);
        let shards = u64::decode(&mut r).expect("shard count");
        let mut options = InstantiateOptions::decode(&mut r).expect("options");
        edit(&mut options);
        let mut edited = shards.to_wire();
        options.encode(&mut edited);
        edited.extend_from_slice(&payload[payload.len() - r.remaining()..]);
        edited
    })
}

#[test]
fn hostile_options_in_a_well_framed_meta_never_panic() {
    let fixture = checkpoint_bytes_fixture();
    assert_eq!(with_meta_options(&fixture, |_| {}), fixture);

    // Restore re-runs key generation with the saved options, and RSA
    // key generation asserts on its size: an unsupported one has to be
    // refused while META is decoded.
    for key_bits in [7, 126, 513, 1 << 40] {
        let bad = with_meta_options(&fixture, |options| {
            options.signed = true;
            options.key_bits = key_bits;
        });
        let err = must_fail(restore_mutilated(bad, "meta-key-bits"), "unsupported key size");
        assert!(
            matches!(err, CheckpointError::Corrupt("unsupported RSA key size")),
            "key_bits {key_bits}: got {err:?}"
        );
    }

    // Likewise the observability window, which the timeline asserts
    // to be positive.
    let bad = with_meta_options(&fixture, |options| {
        options.timeline_window = Some(SimDuration::ZERO);
    });
    let err = must_fail(restore_mutilated(bad, "meta-window"), "zero timeline window");
    assert!(
        matches!(err, CheckpointError::Corrupt("timeline window must be positive")),
        "got {err:?}"
    );

    // And the dampening reuse tick: at zero the tick timer re-arms at
    // the same instant while any pair is suppressed, so a restored run
    // would spin without ever decaying a penalty.
    let bad = with_meta_options(&fixture, |options| {
        options.dampening =
            Some(DampeningPolicy { reuse_tick: SimDuration::ZERO, ..DampeningPolicy::default() });
    });
    let err = must_fail(restore_mutilated(bad, "meta-reuse-tick"), "zero reuse tick");
    assert!(
        matches!(err, CheckpointError::Corrupt("dampening reuse tick must be positive")),
        "got {err:?}"
    );

    // A journal capacity is a logical ring bound, not a reservation:
    // an absurd one restores (the routers' own saved journals, disabled
    // in this fixture, replace it) and replays like the intact file.
    let absurd = with_meta_options(&fixture, |options| options.journal_capacity = 1 << 62);
    let mut restored = restore_mutilated(absurd, "meta-journal").expect("journal bound is logical");
    let mut intact = restore_mutilated(fixture, "meta-intact").expect("intact fixture restores");
    for asn in intact.ases() {
        assert_eq!(restored.router(asn).journal().capacity(), 0);
    }
    assert_eq!(restored.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(intact.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(restored.rib_fingerprint(), intact.rib_fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random topologies × random kill instants × random shard counts:
    /// kill-and-recover equality holds everywhere, with dampening and
    /// signing in the path on alternating seeds.
    #[test]
    fn random_kills_recover_identically(
        seed in 0u64..10_000,
        tier2 in 3usize..=6,
        stubs in 4usize..=12,
        kill_ms in 10u64..150,
        shards in 1usize..=8,
    ) {
        let params = InternetParams {
            tier1: 2,
            tier2,
            stubs,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let topology = internet_like(params, seed);
        let options = InstantiateOptions {
            seed,
            signed: seed % 3 == 0,
            key_bits: 512,
            dampening: if seed % 2 == 1 { Some(DampeningPolicy::default()) } else { None },
            ..Default::default()
        };
        let kill_at = SimTime(kill_ms * 1000);
        assert_recovery(&topology, options, shards, kill_at);
    }
}
