//! The wire catalog: one row per [`Wire`] type, one generic property.
//!
//! Everything this system hashes, signs, checkpoints or bills to
//! `bytes_on_wire` goes through `pvr_crypto::encoding` (DESIGN.md,
//! "Wire codec"). [`check`] holds every type to the same contract:
//!
//! * each sample round-trips through `decode_exact` to the same bytes,
//!   and `encoded_len()` equals the encoded length;
//! * the SHA-256 of the samples' bytes equals a committed golden — the
//!   format pin. The goldens were generated by running this table at
//!   the commit *before* the codec was rewritten (PR 19's parent), so
//!   they are also the migration oracle: same samples, same bytes.
//!   A golden changes only with a deliberate format bump, never
//!   silently (`.claude/skills/verify/SKILL.md` says how);
//! * hostile input — every truncation, 64 seeded bit flips, `FF FF FF
//!   FF` written over every offset — decodes to a typed [`WireError`]
//!   or to a value that itself round-trips. Never a panic, and a count
//!   read from the input never sizes an allocation beyond the input.
//!
//! Samples carry the edges: empty and long sequences, `None`/`Some`,
//! every enum variant, `/0` and `/32` prefixes, an unsigned and a
//! 3-hop signed route, and a 4-hop one whose newest attestation is one
//! leaf of a three-neighbor export batch (salt, position, siblings).

use pvr::bgp::{
    demo_chain, AsPath, Asn, Attestation, BgpUpdate, Candidate, Community, DampState,
    DampeningPolicy, Edge, InstantiateOptions, LocalEvent, Origin, OriginTable, Prefix, Route,
    SignedRoute, Topology,
};
use pvr::core::record::make_record;
use pvr::core::simproto::PvrMsg;
use pvr::core::{BitReveal, Disclosure, Figure1Bed, GraphReveal, VertexContent, VertexRecord};
use pvr::crypto::drbg::{CounterStream, HmacDrbg};
use pvr::crypto::encoding::{decode_exact, Wire, WireError};
use pvr::crypto::{
    commit, sha256, Blinding, Commitment, Digest, Identity, Opening, RsaSignature, Sha256,
};
use pvr::mht::{EquivocationEvidence, InclusionProof, Label, SignedRoot, SparseMht};
use pvr::netsim::{Fault, LinkConfig, SimDuration, SimTime};
use pvr::rfg::{AccessPolicy, OperatorKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `v` encodes to `encoded_len()` bytes that decode back to the same
/// bytes. (Equality is on bytes so that no row needs `PartialEq`.)
fn assert_round_trips<T: Wire>(name: &str, v: &T) -> Vec<u8> {
    let bytes = v.to_wire();
    assert_eq!(v.encoded_len(), bytes.len(), "{name}: encoded_len disagrees with encode");
    let back = decode_exact::<T>(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(back.to_wire(), bytes, "{name}: re-encoding differs");
    bytes
}

/// Hostile bytes must give a typed error or a value that round-trips.
fn assert_survives<T: Wire>(name: &str, hostile: &[u8]) {
    let outcome: Result<T, WireError> = decode_exact(hostile);
    if let Ok(v) = outcome {
        assert_round_trips(name, &v);
    }
}

/// The catalog property; returns the row if its golden does not match.
fn check<T: Wire>(name: &str, samples: Vec<T>, golden: &str) -> Option<String> {
    println!("row {name}"); // shown when a decoder panics below
    let mut hasher = Sha256::new();
    for sample in &samples {
        let bytes = assert_round_trips(name, sample);
        hasher.update(&(bytes.len() as u64).to_be_bytes());
        hasher.update(&bytes);

        // Every offset of a small sample, a stride through a big one.
        let stride = (bytes.len() / 2048).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            assert_survives::<T>(name, &bytes[..cut]);
        }
        for at in (0..bytes.len().saturating_sub(3)).step_by(stride) {
            let mut bad = bytes.clone();
            bad[at..at + 4].fill(0xff);
            assert_survives::<T>(name, &bad);
        }
        let mut rng = HmacDrbg::new(name.as_bytes());
        for _ in 0..64 {
            let mut bad = bytes.clone();
            bad[rng.index(bytes.len())] ^= 1 << rng.below(8);
            assert_survives::<T>(name, &bad);
        }
    }
    let got = hasher.finalize().to_hex();
    (got != golden).then(|| format!("    (\"{name}\", \"{got}\"),"))
}

fn prefix(s: &str) -> Prefix {
    Prefix::parse(s).expect("prefix literal")
}

fn path(asns: &[u32]) -> AsPath {
    AsPath::from_slice(&asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>())
}

/// A route with every attribute off its default.
fn rich_route() -> Route {
    let mut route = Route::originate(prefix("10.1.0.0/16"))
        .propagated_by(Asn(65_001))
        .propagated_by(Asn(65_002))
        .with_community(Community(65_000, 1))
        .with_community(Community::NO_EXPORT);
    route.local_pref = 250;
    route.med = 17;
    route.origin = Origin::Incomplete;
    route
}

fn topology() -> Topology {
    let region = Community(65_000, 7);
    let mut t = Topology::new();
    t.add_as(Asn(9));
    t.provider_customer(Asn(1), Asn(2));
    t.peering(Asn(2), Asn(3));
    t.partial_transit(Asn(1), Asn(4), region);
    t.originate(Asn(2), prefix("10.2.0.0/16"));
    t.originate(Asn(2), prefix("10.3.0.0/16"));
    t.originate(Asn(4), prefix("0.0.0.0/0"));
    t.tag_region(Asn(1), Asn(2), region);
    t.schedule(Asn(2), SimDuration::from_millis(40), LocalEvent::Withdraw(prefix("10.2.0.0/16")));
    t.schedule(Asn(2), SimDuration::from_millis(90), LocalEvent::Announce(prefix("10.2.0.0/16")));
    t
}

fn options() -> Vec<InstantiateOptions> {
    vec![
        InstantiateOptions::default(),
        InstantiateOptions {
            seed: 0x0102_0304_0506_0708,
            signed: true,
            key_bits: 1024,
            mrai: Some(SimDuration::from_millis(5)),
            mrai_jitter: Some(SimDuration::from_millis(1)),
            dampening: Some(DampeningPolicy),
            timeline_window: Some(SimDuration::from_millis(10)),
            journal_capacity: 4096,
            private_verification: true,
            smc_lane_cap: 16,
        },
    ]
}

#[test]
fn every_wire_type_holds_the_catalog_contract() {
    // Fixtures shared by several rows. All randomness is a seeded DRBG,
    // so every sample below is the same bytes on every run.
    let mut rng = HmacDrbg::new(b"wire catalog");
    let identity = Identity::generate(10, 512, &mut rng);
    let root_a = SignedRoot::create(&identity, b"10.0.0.0/8".to_vec(), 3, sha256(b"root a"));
    let root_b = SignedRoot::create(&identity, b"10.0.0.0/8".to_vec(), 3, sha256(b"root b"));
    let (commitment, opening) = commit(b"tag", b"some value", &mut rng);
    let (three_hops, _, _) = demo_chain(3, 512, b"wire catalog chain");
    let exported = {
        let signer = Arc::new(identity.clone());
        let route = three_hops.route.clone().propagated_by(Asn(10));
        let (targets, salts) = ([Asn(11), Asn(12), Asn(13)], [[1; 16], [2; 16], [3; 16]]);
        SignedRoute::export(Some(&three_hops), &signer, &route, &targets, &salts)
    };
    let unsigned = SignedRoute::unsigned(Route::originate(prefix("10.0.0.0/8")));

    let leaves: Vec<(Label, Vec<u8>)> = vec![
        (Label::Var(3), b"payload".to_vec()),
        (Label::Slot(1, 2), b"bit".to_vec()),
        (Label::Custom(b"extra".to_vec()), Vec::new()),
    ];
    let mht = SparseMht::build(&leaves, [15; 32]);

    let bed = Figure1Bed::build(&[2, 3, 4], 7);
    let committer = bed.honest_committer();
    let to_receiver = committer.disclosure_for_receiver(bed.b);
    let to_provider = committer.disclosure_for_provider(bed.ns[0]);
    let everyone: Vec<Asn> = bed.ns.iter().copied().chain([bed.b]).collect();
    let alpha = AccessPolicy::paper_example(&bed.graph, &everyone);
    let graph_reveals = committer.graph_disclosure_for(bed.b, &alpha);
    let with_graph = Disclosure { graph: graph_reveals.clone(), ..to_receiver.clone() };
    let variable = VertexContent::Variable { routes: vec![rich_route(), unsigned.route.clone()] };
    let operator = VertexContent::Operator { kind: OperatorKind::MinPathLen };
    let (record, _) = make_record(&[Label::Var(3)], &[Label::Var(4)], &operator, &mut rng);

    let operator_kinds = vec![
        OperatorKind::Existential,
        OperatorKind::MinPathLen,
        OperatorKind::MaxLocalPref,
        OperatorKind::FilterCommunity { community: Community(1, 2), keep_if_present: true },
        OperatorKind::FilterAsPresence { asn: Asn(3), keep_if_present: false },
        OperatorKind::FilterPrefix { cover: prefix("10.0.0.0/8") },
        OperatorKind::Union,
        OperatorKind::WithinHops { epsilon: 2 },
        OperatorKind::WithinHops { epsilon: 4_294_967_295 },
        OperatorKind::PickOne,
        OperatorKind::ShorterOf,
    ];
    let faults = vec![
        Fault::LinkDown { a: 1, b: 2 },
        Fault::LinkUp { a: 3, b: 0 },
        Fault::LinkDegrade { a: 1, b: 4, drop_prob: 0.25, jitter: SimDuration::from_micros(9) },
        Fault::SessionReset { a: 5, b: 6 },
        Fault::NodePause { node: 7 },
        Fault::NodeResume { node: 7 },
    ];
    let updates = vec![
        BgpUpdate::default(),
        BgpUpdate { announces: vec![unsigned.clone()], withdraws: vec![] },
        BgpUpdate {
            announces: vec![SignedRoute::unsigned(rich_route())],
            withdraws: vec![prefix("192.168.0.0/16")],
        },
        BgpUpdate { announces: vec![three_hops.clone(), three_hops.clone()], withdraws: vec![] },
        BgpUpdate {
            announces: vec![],
            withdraws: (0..300).map(|i| Prefix::new(i << 16, 24)).collect(),
        },
    ];

    let golden: BTreeMap<&str, &str> = GOLDEN.iter().copied().collect();
    assert_eq!(golden.len(), GOLDEN.len(), "a catalog row is listed twice");
    let mut seen = BTreeSet::new();
    let mut stale = Vec::new();
    macro_rules! row {
        ($t:ty, $samples:expr) => {
            let name = stringify!($t);
            assert!(seen.insert(name), "row {name} appears twice");
            let samples: Vec<$t> = $samples;
            stale.extend(check(name, samples, golden.get(name).copied().unwrap_or("")));
        };
    }

    // pvr-crypto: the primitives …
    row!(u8, vec![0u8, 0xff]);
    row!(u16, vec![0u16, 0xdead]);
    row!(u32, vec![0u32, 0xdead_beef]);
    row!(u64, vec![0u64, u64::MAX]);
    row!(u128, vec![0u128, u128::MAX - 1]);
    row!(bool, vec![false, true]);
    row!(Vec<u8>, vec![Vec::new(), vec![1u8, 2, 3], vec![0xa5u8; 70_000]]);
    row!(String, vec![String::new(), "héllo wörld".to_string()]);
    row!(Option<u32>, vec![None, Some(42u32)]);
    // … and the values built on them.
    row!(Digest, vec![Digest::ZERO, sha256(b"digest")]);
    row!(RsaSignature, vec![RsaSignature(Vec::new()), root_a.signature.clone()]);
    row!(Commitment, vec![commitment, Commitment(Digest::ZERO)]);
    row!(Blinding, vec![opening.blind, Blinding([0xff; 32])]);
    row!(Opening, vec![opening.clone(), Opening { value: vec![], blind: opening.blind }]);

    // pvr-mht
    row!(
        Label,
        vec![Label::Var(7), Label::Rule(9), Label::Slot(3, 4), Label::Custom(b"burst".to_vec())]
    );
    row!(
        InclusionProof,
        vec![
            mht.prove(&Label::Var(3)).expect("leaf"),
            mht.prove(&Label::Custom(b"extra".to_vec())).expect("leaf"),
            InclusionProof { label: Label::Rule(0), payload: vec![], siblings: vec![] },
        ]
    );
    row!(SignedRoot, vec![root_a.clone(), root_b.clone()]);
    row!(EquivocationEvidence, vec![EquivocationEvidence { a: root_a.clone(), b: root_b }]);

    // pvr-netsim
    row!(SimTime, vec![SimTime::ZERO, SimTime(u64::MAX)]);
    row!(SimDuration, vec![SimDuration::ZERO, SimDuration::from_millis(200)]);
    row!(
        LinkConfig,
        vec![
            LinkConfig::default(),
            LinkConfig::with_latency(SimDuration::from_millis(7))
                .jittered(SimDuration::from_micros(123))
                .lossy(0.375),
            LinkConfig { drop_prob: 1.0, down: true, ..LinkConfig::default() },
        ]
    );
    row!(Fault, faults);

    // pvr-bgp
    row!(Asn, vec![Asn(0), Asn(64_512), Asn(u32::MAX)]);
    row!(Prefix, vec![prefix("0.0.0.0/0"), prefix("10.1.2.0/24"), prefix("255.255.255.255/32")]);
    row!(Origin, vec![Origin::Igp, Origin::Egp, Origin::Incomplete]);
    row!(Community, vec![Community(0, 0), Community::NO_EXPORT]);
    row!(
        AsPath,
        vec![
            AsPath::empty(),
            path(&[65_001, 65_002, 65_003]),
            path(&(1..=255).collect::<Vec<_>>())
        ]
    );
    row!(Route, vec![Route::originate(prefix("0.0.0.0/0")), rich_route()]);
    row!(
        Candidate,
        vec![Candidate::local(rich_route()), Candidate::from_neighbor(rich_route(), Asn(7))]
    );
    let mut attestations = three_hops.chain().to_vec();
    attestations.extend(exported[2].chain().newest());
    row!(Attestation, attestations);
    row!(SignedRoute, vec![unsigned.clone(), three_hops.clone(), exported[1].clone()]);
    row!(BgpUpdate, updates);
    row!(Edge, topology().edges().to_vec());
    row!(
        LocalEvent,
        vec![
            LocalEvent::Announce(prefix("10.2.0.0/16")),
            LocalEvent::Withdraw(prefix("10.2.0.0/16"))
        ]
    );
    // `DampeningPolicy` has no row: it has no fields and encodes to no
    // bytes, so the `Some` sample below is all there is of it.
    row!(InstantiateOptions, options());
    row!(
        OriginTable,
        vec![
            OriginTable::default(),
            OriginTable::new(vec![(prefix("10.0.0.0/8"), Asn(1)), (prefix("0.0.0.0/0"), Asn(2))]),
        ]
    );
    row!(Topology, vec![Topology::new(), topology()]);

    // pvr-rfg
    row!(OperatorKind, operator_kinds);

    // pvr-core
    row!(VertexContent, vec![variable, VertexContent::Variable { routes: vec![] }, operator]);
    row!(VertexRecord, vec![record]);
    row!(BitReveal, to_receiver.bit_reveals.clone());
    row!(GraphReveal, graph_reveals);
    row!(Disclosure, vec![Disclosure::default(), to_provider.clone(), with_graph]);
    row!(
        PvrMsg,
        vec![
            PvrMsg::Root(root_a.clone()),
            PvrMsg::Gossip(root_a),
            PvrMsg::ToProvider(to_provider),
            PvrMsg::ToReceiver(to_receiver),
        ]
    );

    // BEGIN rows whose impls are new with the codec rewrite. Their
    // goldens were generated at the parent too, from the same samples
    // through the helpers and hand loops these impls replaced
    // (`encode_seq`, `(x as u64).encode`, `extend_from_slice`, one
    // `encode` per member, `HmacDrbg::state_bytes`).
    row!(usize, vec![0usize, 4096, u32::MAX as usize]);
    row!([u8; 32], vec![[0u8; 32], [0xa5; 32]]);
    row!(Vec<u64>, vec![vec![], vec![1u64, 2, 3, u64::MAX], (0..1000).collect()]);
    row!(Vec<Option<Digest>>, vec![vec![None, Some(sha256(b"sibling")), None]]);
    row!(Arc<[Community]>, vec![Arc::from([]), Arc::from([Community(1, 2), Community(3, 4)])]);
    row!((Prefix, Asn), vec![(prefix("10.0.0.0/8"), Asn(1))]);
    row!(
        (Asn, SimDuration, LocalEvent),
        vec![(Asn(2), SimDuration::from_millis(40), LocalEvent::Withdraw(prefix("10.2.0.0/16")))]
    );
    row!(BTreeMap<Asn, Vec<Prefix>>,
        vec![
            BTreeMap::new(),
            BTreeMap::from([
                (Asn(2), vec![prefix("10.2.0.0/16"), prefix("10.3.0.0/16")]),
                (Asn(4), vec![prefix("0.0.0.0/0")]),
            ]),
        ]
    );
    row!(BTreeSet<Asn>, vec![BTreeSet::new(), topology().ases().collect::<BTreeSet<Asn>>()]);
    row!(
        DampState,
        vec![
            DampState::default(),
            DampState { penalty: 2500, last_decay: SimTime(40_000), suppressed: true }
        ]
    );
    let drbg = HmacDrbg::new(b"wire catalog drbg");
    let mut drawn = drbg.clone();
    let _ = (drawn.u64(), drawn.u64());
    row!(HmacDrbg, vec![drbg, drawn]);
    // END rows whose impls are new with the codec rewrite.
    let fresh = CounterStream::from_drbg(&mut HmacDrbg::new(b"wire catalog salts"));
    let mut drawn = fresh.clone();
    drawn.fill(&mut [0; 48]);
    row!(CounterStream, vec![fresh, drawn]);

    let unused: Vec<_> = golden.keys().filter(|name| !seen.contains(*name)).collect();
    assert!(unused.is_empty(), "goldens without a row: {unused:?}");
    assert!(
        stale.is_empty(),
        "wire bytes differ from the committed goldens — a format change. If it is \
         deliberate, replace these GOLDEN entries and say so in CHANGES.md:\n{}",
        stale.join("\n")
    );
}

/// The one row that must *not* decode: a `Custom` label body over
/// `u16::MAX` has no prefix-free bitstring (its `u16` length would wrap,
/// making `Custom(vec![])` a prefix of it), so it is refused where
/// hostile bytes enter — alone and inside everything that carries a
/// label. One byte less is the longest label there is, and round-trips.
#[test]
fn over_long_custom_label_is_a_typed_error() {
    let refused = WireError::Invalid("custom label over 65535 bytes");
    let over = Label::Custom(vec![0; Label::MAX_CUSTOM_LEN + 1]);
    assert_eq!(decode_exact::<Label>(&over.to_wire()), Err(refused.clone()));
    let proof = InclusionProof { label: over, payload: b"x".to_vec(), siblings: vec![] };
    assert_eq!(decode_exact::<InclusionProof>(&proof.to_wire()), Err(refused.clone()));
    let reveal = BitReveal { index: 1, proof };
    assert_eq!(decode_exact::<BitReveal>(&reveal.to_wire()), Err(refused));

    assert_round_trips("Label", &Label::Custom(vec![0xa5; Label::MAX_CUSTOM_LEN]));
}

/// SHA-256 over each row's samples (`u64` length ‖ bytes, in order).
const GOLDEN: &[(&str, &str)] = &[
    ("u8", "e50e47a0d8d5e8bb5968aa63682c751caec67d58474795b97aba9c5592336e9a"),
    ("u16", "349acb94bcba871829d418edd7837bc924926fd6210125b18ab6cdc9870c9dc9"),
    ("u32", "216a9cc570d30884839800263306d0fd93ce2af661b793fd1aff0e5292b7c299"),
    ("u64", "f261c8598d8f8288ed553fd756514863ab858b75e7149f78cc6810434c177d2c"),
    ("u128", "97f3f3bd1f571c4e60795c831abf802bf99b280dda0372ba9e537c65217cc334"),
    ("bool", "4360787011e11feebb67f3f33b8e102c153bea7d182370c3f4c2d51ebd3e561b"),
    ("Vec<u8>", "ed029b065548f5ed754e6f32220da29133afa758ccf15bab6e15906de079c987"),
    ("String", "8ee8715c82c5895cfd9dd29511d16fdfb4c67a62a50811b1d2cf320fb3a552cb"),
    ("Option<u32>", "2070b4b19efa2d74ecf471706d8e8e6a10cd470934f37abd8b4f20ff54f7bb59"),
    ("Digest", "7ac9ae19400b83f24785b8b933264dcec938808239a635707e797d2170b5e056"),
    ("RsaSignature", "11cebae4a5fc1c8abe070b523ca348f75758b130474b674f9294bf1ca2d83a1b"),
    ("Commitment", "e35838565d719a1cb1d0d052e6523d4cb7831f3df095e0c9a17759f392e7d74a"),
    ("Blinding", "5afc674560e258cef3a890970254b740c99ecb6c05ddeaafa70a6cbbb854b902"),
    ("Opening", "5ad7cacbc05ae3a058a551d3b7804712ff1c79125ce32281026fe88f06bb4ecd"),
    ("Label", "c846983b0a4b092f4faf2a2444f82968bbbd178d6f69287f5049b11fa00a0c9c"),
    ("InclusionProof", "add379f5b43c1e329803953dd6e109b3899ed5096a0b4d593443b9c34a876bbe"),
    ("SignedRoot", "0f7d54029ef740a950fd3a17aa8733cb8fed42a87dfeb713f26a5b9a7ed7313b"),
    ("EquivocationEvidence", "c5b763b34d12b53e33f8a6f55e855c8add703a27d105cd0354dd5d28656617e9"),
    ("SimTime", "f261c8598d8f8288ed553fd756514863ab858b75e7149f78cc6810434c177d2c"),
    ("SimDuration", "cad33ec0cba6868c29ab3abe0fe2e87ce669a71e7d7534c081451dbeeef7c74c"),
    ("LinkConfig", "5e7ee92e4954e56a0fd1b5a1ea8532fbc1eb34ceb68fe3a3d2e8886b3bcf14bc"),
    ("Fault", "7bb2ba9209598d8c89aeff9eb1a31ba4e8544a80629c395f3eecaef88014df04"),
    ("Asn", "bad3ecdc7fabd87012dd17703ee7449d510bd535b5be05727ca5372e74364750"),
    ("Prefix", "47cbea1889e87c808839a324c0ed4f2f58d2f318ec32a35b53d6821f8b511f32"),
    ("Origin", "518babb9ce4ec52cee7353fb28b271d12935fb345dc30d5a5b216109ccf97f64"),
    ("Community", "01e7ff71932ea9233f3850d62042190de5d4569ff5224c66bd4ee876b066cef2"),
    ("AsPath", "797eebe86ab8e6a3f8fd9b4d9717123d247ea09aa92e0c289139d9a7ca226091"),
    ("Route", "31b7ff3631e0a02a580f962716f31906cbd1b83df1f8dbff65e566987b36c7d4"),
    ("Candidate", "c2fb5bf670c0c9359161a40e46815208001cabdb64c85b49e6bee6683dd6cc96"),
    // Re-pinned with `PVRCKPT5`: an attestation is one leaf of its
    // export's signed batch (salt, position, size, siblings, the root's
    // signature, which binds the chain below); the samples gained a
    // three-neighbor export. Re-pinned with `PVRCKPT6`: that export's
    // tree hashes its interior nodes in one compression each, which
    // moves its siblings, its root and so its signature. Re-pinned with
    // `PVRCKPT7`: a leaf hashes its export's shared part, zero-padded to
    // a block, then its index, target and salt, which moves every leaf,
    // a batch of one's included, and so every signature; `BgpUpdate`,
    // `Disclosure` and `PvrMsg` carry such chains and moved with them.
    ("Attestation", "fa9f5d82ae094097be7ceaae3fac23cbdb2a692f3e0e08e7455ffff0eb2ea938"),
    ("SignedRoute", "18eb000f7953587f7f1475bb64f3679fa4821cffe2da3d5bcd004e914ef8df2a"),
    ("BgpUpdate", "bfda41eea975afce0c8f78b526555e46b6de9435494f31ef7bf447f91f6a02ce"),
    ("Edge", "2314b14c5111935a06becb0f06a94eb9b4faa0925b29f3fbead08ff3602beb09"),
    ("LocalEvent", "e4e7d36eec3a2fa33e31f900aad7d818d2f7c3c0ca41f81a1ef06e53387bf8a0"),
    // Re-pinned with `PVRCKPT4`: `link` and the dampening thresholds left.
    ("InstantiateOptions", "6f803a378509249dc7279a2d2ce0a5ac997a7e6b98180c37a52ea0593956898c"),
    ("OriginTable", "f03a5932abdc168c0c6dc90f67a1143316e03dc6d99c98151be727b42c3e727a"),
    ("Topology", "8b107233849ebbdf31926400f706d865610ea5ed560ca7986e937952383b4a63"),
    ("OperatorKind", "c89ed814154a10ba47f43b33f939b3301266c640649bea04ba429bfe03077751"),
    ("VertexContent", "5c3626079d6c30d2c235b0fac7d6040280a9c65298b4da0d8d175c6f094abd5d"),
    ("VertexRecord", "3f8af7e9926c4531a95a3a80e5e22716b41dbc7f90d157050a2e36ad0560345b"),
    ("BitReveal", "59e2cabbed576096075f41725b0e2a5da9730f9a781542208b0d6ce6643749dd"),
    ("GraphReveal", "b13753f62f5a549c6f37b7fc8856a5e83fb99b33bafcb54f9b4072dfbec6ce41"),
    // Re-pinned with `PVRCKPT5`: both carry the export's attestation
    // chain. Re-pinned with `PVRCKPT7`: that chain's leaves moved.
    ("Disclosure", "8bc61c82941a2a5ee383bac5c6e27f8aa57aa5fc6a82be5b076cc458823502d1"),
    ("PvrMsg", "7a7121a42184715f24aabbb2b97d5c2c1bfc7acddb91df54e4e351300003f735"),
    // BEGIN rows whose impls are new with the codec rewrite.
    ("usize", "772d2e7b2e439c66aa2e31629f007221383f76866f62a8bad8c4184d4072a900"),
    ("[u8; 32]", "b328755b68ca4b0aa005906eed6f8dc7fa9817a2edae6666d05b9765fb967f46"),
    ("Vec<u64>", "53727e15952fbca0cc073889ec50542d7dd2eb5a58ef03419ff7a8712526be23"),
    ("Vec<Option<Digest>>", "14993b57f09fa246e7bd6a90ac016ca472ee70502ff2b44a8574b3bc89dd6d76"),
    ("Arc<[Community]>", "5132c33325f6ee29418647aad2ffc76ba62493ba5ef6113db015ff2129c233db"),
    ("(Prefix, Asn)", "9501ace6f20e6666620a1aeeadbae722fe78a513094865cc41a8d63764d3e6c6"),
    (
        "(Asn, SimDuration, LocalEvent)",
        "2c8727d7ee4c16a8a72cb031225e6d86e4e78c36c8ed1aad509502f453fab533",
    ),
    (
        "BTreeMap<Asn, Vec<Prefix>>",
        "63dfb80729783f4f6d38880948dbb0cb2ab9963367aa4b9db2e48337c845afb6",
    ),
    ("BTreeSet<Asn>", "f1a31c3104a5224faf6e1223e81dbeef937d8be972c07ed2a111b58cfc5aa6ae"),
    ("DampState", "3a24c3070d03188989902ff8554d1675626fc8eddd3d19df64e255a5e2a7ddd0"),
    ("HmacDrbg", "4136767a743c4d0914c984728175a41c8856b22d6a2c4533f08db5f9f454a1cc"),
    // END rows whose impls are new with the codec rewrite.
    // New with `PVRCKPT7`: a signed router's salt stream, `key ‖ counter`.
    ("CounterStream", "8bc44ae4df3ba9884af4be070cd10d2133b50bf5da31e3638039a05221c5b639"),
];
