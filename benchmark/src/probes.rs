//! Layer probes for the traced run: unit costs timed by calling one
//! layer directly, through its public functions, on inputs of the
//! workload's shape. Each probe is time-boxed to a few tens of
//! milliseconds; a workload runs only the probes of the layers it
//! loads, and the metrics of the others read 0 there.

use pvr::attack::{Campaign, CampaignConfig};
use pvr::bgp::rib::ReselectHint;
use pvr::bgp::{
    demo_chain, AdjRibIn, Asn, BgpNetwork, BgpUpdate, LocRib, Prefix, Route, SignedRoute, Topology,
    VerifyCache,
};
use pvr::core::Figure1Bed;
use pvr::crypto::{commit, sha256, HmacDrbg, Identity, RsaPrivateKey, Ubig, Wire};
use pvr::mht::{Label, SeqTree, SparseMht};
use pvr::netsim::{Agent, Context, NodeId, Payload, RunLimits, ShardedSimulator, Simulator};
use pvr::obs::expo::to_prometheus;
use pvr::rfg::{compile_policy, Promise};
use pvr::smc::{
    majority_circuit, min_circuit, pack_lane_inputs, run_gmw, to_bits, BatchGmw, MAX_LANES,
};
use pvr::store::{diff, read_container, write_header, write_section, PMap};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Metrics = Vec<(&'static str, f64)>;

/// Median seconds per call of `f`: seven timed batches, each sized to
/// last about two milliseconds.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let n = ((2e-3 / once).ceil() as usize).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// RSA at one modulus size: (sign µs, verify µs).
fn rsa(bits: usize, rng: &mut HmacDrbg) -> (f64, f64) {
    let key = RsaPrivateKey::generate(bits, rng);
    let msg = [0xabu8; 64];
    let sign = per_call(|| {
        black_box(key.sign(black_box(&msg)));
    });
    let sig = key.sign(&msg);
    let verify = per_call(|| key.public().verify(black_box(&msg), &sig).expect("own signature"));
    (sign * 1e6, verify * 1e6)
}

pub fn crypto_512(seed: u64) -> Metrics {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "probe-rsa512");
    let (sign, verify) = rsa(512, &mut rng);
    let keygen = per_call(|| {
        black_box(RsaPrivateKey::generate(512, &mut rng));
    });
    let block = vec![0x5au8; 1 << 16];
    let sha = per_call(|| {
        black_box(sha256(black_box(&block)));
    });
    let mut out = vec![0u8; 1 << 12];
    let drbg = per_call(|| rng.generate(black_box(&mut out)));
    vec![
        ("crypto.sign512_us", sign),
        ("crypto.verify512_us", verify),
        ("crypto.keygen512_ms", keygen * 1e3),
        ("crypto.sha256_mb_per_s", block.len() as f64 / 1e6 / sha),
        ("crypto.drbg_mb_per_s", out.len() as f64 / 1e6 / drbg),
    ]
}

pub fn crypto_1024(seed: u64) -> Metrics {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "probe-rsa1024");
    let (sign, verify) = rsa(1024, &mut rng);
    let n = RsaPrivateKey::generate(1024, &mut rng).public().n().clone();
    let base = Ubig::random_below(&n, &mut rng);
    let exp = Ubig::random_bits(1023, &mut rng);
    let modpow = per_call(|| {
        black_box(base.modpow(black_box(&exp), &n));
    });
    let commit_s = per_call(|| {
        black_box(commit(b"probe", &[1u8; 33], &mut rng));
    });
    vec![
        ("crypto.sign1024_us", sign),
        ("crypto.verify1024_us", verify),
        ("crypto.modpow1024_us", modpow * 1e6),
        ("crypto.commit_us", commit_s * 1e6),
    ]
}

/// Attestation chains of the length signed convergence sees (4 hops).
pub fn bgp_chain(seed: u64) -> Metrics {
    let (chain, mut keys, receiver) = demo_chain(4, 512, &seed.to_be_bytes());
    let mut rng = HmacDrbg::from_u64_labeled(seed, "probe-chain");
    let me = Identity::generate(receiver.principal(), 512, &mut rng);
    keys.register_identity(&me);
    let next = chain.route.clone().propagated_by(receiver);
    let extend = per_call(|| {
        black_box(SignedRoute::extend(&chain, &me, next.clone(), Asn(receiver.0 + 1)));
    });
    let cold = per_call(|| chain.verify(receiver, &keys).expect("genuine chain"));
    let cache = VerifyCache::new();
    chain.verify_cached(receiver, &keys, Some(&cache)).expect("genuine chain");
    let warm = per_call(|| chain.verify_cached(receiver, &keys, Some(&cache)).expect("cached"));
    vec![
        ("bgp.chain_extend_us", extend * 1e6),
        ("bgp.chain_verify_cold_us", cold * 1e6),
        ("bgp.chain_verify_warm_us", warm * 1e6),
    ]
}

/// The decision process on a replayed Adj-RIB-In: every route the
/// best-connected router of the converged network holds arrives again,
/// neighbor by neighbor, at an empty RIB. Plus the per-send encoding
/// cost of a one-route update.
pub fn bgp_decision(net: &BgpNetwork, topology: &Topology) -> Metrics {
    let hub = topology
        .ases()
        .max_by_key(|&a| topology.neighbor_roles(a).len())
        .expect("topology has ASes");
    let router = net.router(hub);
    let arrivals: Vec<(Asn, Prefix, Route)> = topology
        .neighbor_roles(hub)
        .into_iter()
        .flat_map(|(n, _)| router.routes_from(n).into_iter().map(move |(p, r)| (n, p, r.clone())))
        .collect();
    let mut out = Vec::new();
    if !arrivals.is_empty() {
        let replay = per_call(|| {
            let mut adj_in = AdjRibIn::new();
            let mut loc = LocRib::new();
            for (n, p, r) in &arrivals {
                adj_in.insert(*n, r.clone());
                black_box(loc.reselect_with_hint(*p, &adj_in, None, ReselectHint::Neighbor(*n)));
            }
        });
        out.push(("bgp.decision_ns", replay * 1e9 / arrivals.len() as f64));
        let update = BgpUpdate {
            announces: vec![SignedRoute::unsigned(arrivals[0].2.clone())],
            withdraws: vec![],
        };
        let encode = per_call(|| {
            black_box(black_box(&update).wire_size());
            black_box(update.to_wire());
        });
        out.push(("bgp.update_encode_ns", encode * 1e9));
    }
    out
}

#[derive(Clone)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> usize {
        4
    }
}

/// Forwards each token to the next node until its hop budget is spent:
/// the cheapest agent there is, so what remains is the engine.
struct Forwarder {
    next: NodeId,
    hops: u32,
}

impl Agent<Token> for Forwarder {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        ctx.send(self.next, Token(self.hops));
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
        if msg.0 > 1 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const NULL_NODES: usize = 1000;

/// Nanoseconds per event of the serial and the 2-shard engine driving
/// forwarding-only agents through about `events` events, with as many
/// events per timestamp as there are nodes (link latencies are
/// quantized in the real workloads too).
pub fn netsim_null(events: u64, seed: u64, shards: usize) -> Metrics {
    let hops = (events / NULL_NODES as u64).clamp(1, 2_000) as u32;
    let forwarder = |i: usize| Box::new(Forwarder { next: (i + 1) % NULL_NODES, hops });

    let mut serial: Simulator<Token> = Simulator::new(seed);
    for i in 0..NULL_NODES {
        serial.add_node(forwarder(i));
    }
    let t = Instant::now();
    serial.run(RunLimits::none());
    let serial_ns = t.elapsed().as_secs_f64() * 1e9 / serial.stats().events as f64;

    let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(seed, shards);
    for i in 0..NULL_NODES {
        sharded.add_node(forwarder(i));
    }
    let t = Instant::now();
    sharded.run(RunLimits::none());
    let sharded_ns = t.elapsed().as_secs_f64() * 1e9 / sharded.stats().events as f64;
    assert_eq!(serial.stats().events, sharded.stats().events, "engines disagree on a null run");

    vec![
        ("netsim.null_ns_per_event", serial_ns),
        ("netsim.shard2_null_ns_per_event", sharded_ns),
        ("netsim.barrier_overhead_x", sharded_ns / serial_ns),
    ]
}

pub fn mht() -> Metrics {
    const LEAVES: u32 = 1024;
    let items: Vec<(Label, Vec<u8>)> =
        (0..LEAVES).map(|i| (Label::Var(i), vec![i as u8; 32])).collect();
    let build = per_call(|| {
        black_box(SparseMht::build(black_box(&items), [7; 32]));
    });
    let tree = SparseMht::build(&items, [7; 32]);
    let prove = per_call(|| {
        black_box(tree.prove(&Label::Var(0)).expect("label is in the tree"));
    });
    let proof = tree.prove(&Label::Var(0)).expect("label is in the tree");
    let root = tree.root();
    let verify = per_call(|| assert!(proof.verify(black_box(&root))));
    let seq_items: Vec<Vec<u8>> = items.into_iter().map(|(_, v)| v).collect();
    let seq = per_call(|| {
        black_box(SeqTree::build(black_box(&seq_items)));
    });
    vec![
        ("mht.build_us_per_leaf", build * 1e6 / LEAVES as f64),
        ("mht.prove_us", prove * 1e6),
        ("mht.proof_verify_us", verify * 1e6),
        ("mht.proof_bytes", proof.byte_size() as f64),
        ("mht.seqtree_build_us_per_leaf", seq * 1e6 / LEAVES as f64),
    ]
}

/// `bed` is the k = 5 Figure 1 bed.
pub fn rfg(bed: &Figure1Bed) -> Metrics {
    let inputs: BTreeMap<Asn, Vec<Route>> = bed
        .inputs
        .iter()
        .map(|(&n, srs)| (n, srs.iter().map(|sr| sr.route.clone()).collect()))
        .collect();
    let eval = per_call(|| {
        black_box(bed.graph.evaluate(black_box(&inputs)).expect("figure 1 graph validates"));
    });
    let program = "\
input r1 from AS1
input r2 from AS2
input r3 from AS3
let m = min(r2, r3)
output shorter_of(r1, m) to AS200
";
    let compile = per_call(|| {
        black_box(compile_policy(black_box(program)).expect("program compiles"));
    });
    let policy = compile_policy(program).expect("program compiles");
    let promise = Promise::PreferUnlessShorter {
        fallback: Asn(1),
        preferred: [Asn(2), Asn(3)].into_iter().collect(),
    };
    let check = per_call(|| assert!(promise.implemented_by(black_box(&policy.graph), Asn(200))));
    vec![
        ("rfg.eval_us", eval * 1e6),
        ("rfg.dsl_compile_us", compile * 1e6),
        ("rfg.static_check_us", check * 1e6),
    ]
}

/// The private verifier's commonest batch: 2-party 8-bit minimum (a
/// stub has at most two providers), then the majority vote. Returns
/// the metrics and the seconds one full batch (both circuits, 64
/// lanes) takes to evaluate.
pub fn smc(seed: u64) -> (Metrics, f64) {
    const PARTIES: usize = 2;
    const WIDTH: usize = 8;
    let lanes: Vec<Vec<Vec<bool>>> = (0..MAX_LANES)
        .map(|l| (0..PARTIES).map(|p| to_bits(2 + ((l + p) % 11) as u64, WIDTH)).collect())
        .collect();
    let min = min_circuit(PARTIES, WIDTH);
    let packed = pack_lane_inputs(&lanes);
    let mut rng = HmacDrbg::from_u64_labeled(seed, "probe-smc");
    let batch = per_call(|| {
        black_box(BatchGmw::new(&min).run(black_box(&packed), &mut rng).outputs);
    });
    let serial = per_call(|| {
        black_box(run_gmw(&min, black_box(&lanes[0]), &mut rng).outputs);
    });
    let majority = majority_circuit(PARTIES);
    let votes: Vec<Vec<Vec<bool>>> =
        (0..MAX_LANES).map(|l| (0..PARTIES).map(|p| vec![(l + p) % 3 != 0]).collect()).collect();
    let packed_votes = pack_lane_inputs(&votes);
    let vote = per_call(|| {
        black_box(BatchGmw::new(&majority).run(black_box(&packed_votes), &mut rng).outputs);
    });
    let metrics = vec![
        ("smc.gates_per_s_batch64", (min.len() * MAX_LANES) as f64 / batch),
        ("smc.gates_per_s_serial", min.len() as f64 / serial),
    ];
    (metrics, batch + vote)
}

const PROBE_MAGIC: &[u8; 8] = b"PVRPROBE";

/// `PMap` and the section framing on RIB-shaped entries: 8-byte keys,
/// 48-byte values, a 4096-entry map.
pub fn store() -> Metrics {
    const ENTRIES: u32 = 4096;
    let key = |i: u32| [&i.to_be_bytes()[..], &[0u8; 4]].concat();
    let value = [0x11u8; 48];
    let insert = per_call(|| {
        let mut map = PMap::new();
        for i in 0..ENTRIES {
            map = map.insert(&key(i), &value);
        }
        black_box(map.root_hash());
    });
    let mut map = PMap::new();
    for i in 0..ENTRIES {
        map = map.insert(&key(i), &value);
    }
    let keys: Vec<Vec<u8>> = (0..ENTRIES).map(key).collect();
    let get = per_call(|| {
        for k in &keys {
            black_box(map.get(k));
        }
    });
    // One snapshot later: 1 % of the entries changed.
    let mut changed = map.clone();
    for i in (0..ENTRIES).step_by(100) {
        changed = changed.insert(&key(i), &[0x22u8; 48]);
    }
    let diff_s = per_call(|| {
        black_box(diff(black_box(&map), &changed));
    });

    let payload = vec![0x33u8; 1 << 20];
    let mut container = Vec::new();
    write_header(PROBE_MAGIC, 1, &mut container);
    for tag in 0..4u8 {
        write_section(tag, &payload, &mut container);
    }
    let read = per_call(|| {
        black_box(read_container(black_box(&container), PROBE_MAGIC, 1).expect("own container"));
    });
    vec![
        ("store.pmap_insert_us", insert * 1e6 / ENTRIES as f64),
        ("store.pmap_get_us", get * 1e6 / ENTRIES as f64),
        ("store.pmap_diff_ms", diff_s * 1e3),
        ("store.framing_read_mb_per_s", container.len() as f64 / 1e6 / read),
    ]
}

/// `net` is a converged network instantiated with telemetry on.
pub fn obs(net: &BgpNetwork) -> Metrics {
    let snapshot = net.metrics_snapshot("plain");
    let merge = per_call(|| {
        let mut into = snapshot.clone();
        into.merge(black_box(&snapshot));
        black_box(into);
    });
    let expo = per_call(|| {
        black_box(to_prometheus(black_box(&snapshot)));
    });
    vec![("obs.snapshot_merge_us", merge * 1e6), ("obs.expo_prometheus_ms", expo * 1e3)]
}

/// One small campaign (the CI-smoke matrix) on one thread, then on as
/// many as the machine has cores.
pub fn attack(seed: u64) -> Metrics {
    let run = |parallelism: usize| {
        let campaign = Campaign::new(CampaignConfig { parallelism, ..CampaignConfig::quick(seed) });
        let t = Instant::now();
        let report = campaign.run();
        (report.cells.len() as f64, t.elapsed().as_secs_f64())
    };
    let (cells, serial_s) = run(1);
    let (_, parallel_s) = run(pvr::attack::default_parallelism());
    vec![
        ("attack.cells_per_s", cells / serial_s),
        ("attack.sweep_speedup_x", serial_s / parallel_s),
    ]
}
