//! Integration: the extension features working together — the policy
//! DSL (§4's language challenge), the promise-3/ε and promise-4
//! protocols, multi-epoch sessions, and MRAI-damped substrates feeding
//! PVR rounds.

use pvr::bgp::Asn;
use pvr::core::{
    verify_as_receiver, verify_as_receiver_with_epsilon, Cast, Committer, EpochTracker, Figure1Bed,
    Freshness, PvrSession,
};
use pvr::crypto::HmacDrbg;
use pvr::rfg::{compile_policy, Promise};
use std::collections::BTreeSet;

#[test]
fn dsl_compiled_graph_drives_a_full_verified_round() {
    // Write the Figure 1 promise as a program, commit over the compiled
    // graph, and run receiver verification — the whole pipeline from
    // policy text to cryptographic check.
    let program = "\
input r1 from AS1
input r2 from AS2
input r3 from AS3
output min(r1, r2, r3) to AS200
";
    let policy = compile_policy(program).unwrap();
    let bed = Figure1Bed::build(&[3, 2, 4], 501);
    let mut rng = HmacDrbg::from_u64_labeled(501, "dsl-round");
    let committer = Committer::new(&Cast { graph: &policy.graph, ..bed.cast() }, &mut rng);
    let d = committer.disclosure_for_receiver(bed.b);
    let o = verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &d, &bed.keys);
    assert!(o.is_accept(), "{o:?}");
    // The exported route is the true min (length 2 via N2, +1 prepend).
    assert_eq!(d.exported.unwrap().route.path_len(), 3);
}

#[test]
fn dsl_promise_and_static_checker_agree() {
    // For each program, the compiled graph and the Promise checker must
    // agree on what it implements.
    let subset: BTreeSet<Asn> = [Asn(1), Asn(2)].into();
    let cases: Vec<(&str, Promise, bool)> = vec![
        (
            "input r1 from AS1\ninput r2 from AS2\noutput min(r1, r2) to AS200\n",
            Promise::ShortestOfSubset { subset: subset.clone() },
            true,
        ),
        (
            "input r1 from AS1\ninput r2 from AS2\noutput exists(r1, r2) to AS200\n",
            Promise::Existential { subset: subset.clone() },
            true,
        ),
        (
            // min over a strict subset does not implement
            // shortest-overall.
            "input r1 from AS1\ninput r2 from AS2\noutput min(r1) to AS200\n",
            Promise::ShortestOverall,
            false,
        ),
    ];
    for (program, promise, expect) in cases {
        let policy = compile_policy(program).unwrap();
        assert_eq!(promise.implemented_by(&policy.graph, Asn(200)), expect, "{program}");
    }
}

#[test]
fn epsilon_promise_interoperates_with_sessions() {
    // A session whose receiver tolerates ε=1: an export one hop above
    // the minimum passes, two hops fails — across epochs.
    let bed = Figure1Bed::build(&[2, 3, 4], 502);
    let mut session = PvrSession::new(bed.cast(), 502);
    let c = session.next_round(bed.inputs.clone());
    let round = c.round().clone();

    // Honest export (min = 2) passes at any ε.
    let d = c.disclosure_for_receiver(bed.b);
    for eps in [0usize, 1, 3] {
        let o =
            verify_as_receiver_with_epsilon(bed.b, bed.a, &round, &bed.params, eps, &d, &bed.keys);
        assert!(o.is_accept(), "ε={eps}");
    }

    // Doctored export via the length-3 provider: fails ε=0, passes ε=1.
    let n2 = bed.ns[1];
    let received = bed.input_of(n2);
    let out = received.route.clone().propagated_by(bed.a);
    let doctored = pvr::bgp::sbgp::SignedRoute::extend(received, bed.a_identity(), out, bed.b);
    let mut d2 = d.clone();
    d2.exported = Some(doctored);
    let strict =
        verify_as_receiver_with_epsilon(bed.b, bed.a, &round, &bed.params, 0, &d2, &bed.keys);
    assert!(!strict.is_accept());
    let relaxed =
        verify_as_receiver_with_epsilon(bed.b, bed.a, &round, &bed.params, 1, &d2, &bed.keys);
    assert!(relaxed.is_accept());
}

#[test]
fn epoch_tracker_guards_a_session_stream() {
    let bed = Figure1Bed::build(&[2, 3], 503);
    let mut session = PvrSession::new(bed.cast(), 503);
    let mut tracker = EpochTracker::new();
    let mut roots = Vec::new();
    for _ in 0..3 {
        let c = session.next_round(bed.inputs.clone());
        roots.push(c.signed_root().clone());
    }
    assert_eq!(tracker.observe(&roots[0]), Freshness::Fresh);
    assert_eq!(tracker.observe(&roots[2]), Freshness::Fresh); // skip ahead ok
    assert_eq!(tracker.observe(&roots[1]), Freshness::Stale); // replay rejected
    assert_eq!(tracker.observe(&roots[2]), Freshness::Current);
}

#[test]
fn mrai_damped_substrate_still_feeds_clean_pvr_rounds() {
    // Converge a signed, MRAI-damped network, then run a PVR round from
    // the resulting RIB — batching must not corrupt attestation chains.
    use pvr::bgp::{figure1, InstantiateOptions};
    use pvr::core::RouterCast;
    use pvr::netsim::{RunLimits, SimDuration};

    let (topology, cast) = figure1(&[0, 1]);
    let mut net = topology.instantiate(InstantiateOptions {
        seed: 9,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(50)),
        ..Default::default()
    });
    net.converge(RunLimits::none());

    let keys = net.keystore().unwrap();
    let lifted =
        RouterCast::lift(net.router(cast.a), keys, &cast.ns, cast.prefix, cast.b, 1).unwrap();
    assert_eq!(lifted.cast().ns, &cast.ns[..], "every provider's route arrived");
    let report = lifted.cast().run(None, 9);
    assert!(report.clean(), "{report:?}");
}
