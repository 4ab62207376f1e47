//! Integration: the four §2.3 properties across scales and seeds.
//!
//! Detection — "If an AS A incorrectly evaluated its route-flow graph
//! … then at least one neighbor can detect this."
//! Evidence — "at least one AS B can obtain evidence against A that
//! will convince a third party."
//! Accuracy — "If an AS A has evaluated its route-flow graph correctly,
//! no correct AS can detect a violation in A."
//! (Confidentiality is covered in `confidentiality.rs`.)

use pvr::bgp::Asn;
use pvr::core::{run_min_round, Figure1Bed, Misbehavior, Verdict};

/// All evidence-producing behaviors for a given bed. The suppression
/// victim must be the (unique) minimum holder: suppressing a longer
/// route does not change the output and therefore violates no promise
/// (see `suppressing_non_minimal_routes_is_not_a_violation`).
fn strong_behaviors(bed: &Figure1Bed) -> Vec<Misbehavior> {
    vec![
        Misbehavior::ExportLonger,
        Misbehavior::SuppressInput { victim: bed.ns[0] },
        Misbehavior::DenyAll,
        Misbehavior::Equivocate { victim: bed.ns[0] },
        Misbehavior::NonMonotoneBits,
        Misbehavior::FabricateExport,
    ]
}

#[test]
fn accuracy_across_seeds_and_shapes() {
    for seed in [1u64, 2, 3] {
        for lens in [vec![1], vec![2, 2], vec![3, 1, 4], vec![2, 3, 4, 5, 6]] {
            let bed = Figure1Bed::build(&lens, seed);
            let report = run_min_round(&bed, None);
            assert!(report.clean(), "seed={seed} lens={lens:?}: {:?}", report.outcomes);
        }
    }
}

#[test]
fn detection_and_evidence_across_seeds() {
    for seed in [11u64, 12] {
        let bed = Figure1Bed::build(&[2, 3, 5], seed);
        for behavior in strong_behaviors(&bed) {
            let report = run_min_round(&bed, Some(behavior.clone()));
            assert!(report.detected(), "seed={seed} {behavior:?}: not detected");
            assert!(report.convicted(), "seed={seed} {behavior:?}: no conviction");
            // Every accusation from a correct party must stand up.
            for (accuser, verdict) in &report.verdicts {
                assert_eq!(
                    *verdict,
                    Verdict::Guilty,
                    "seed={seed} {behavior:?}: weak accusation by {accuser}"
                );
            }
        }
    }
}

#[test]
fn detection_scales_with_neighbor_count() {
    // ExportLonger must be caught regardless of how many providers exist.
    for k in [2usize, 4, 8, 12] {
        let lens: Vec<usize> = (0..k).map(|i| 2 + (i % 6)).collect();
        let bed = Figure1Bed::build(&lens, 77);
        let report = run_min_round(&bed, Some(Misbehavior::ExportLonger));
        // With ties the "longest" may coincide with the min; only assert
        // when there is a real gap.
        let max = lens.iter().max().unwrap();
        let min = lens.iter().min().unwrap();
        if max > min {
            assert!(report.detected(), "k={k}");
            assert!(report.convicted(), "k={k}");
        }
    }
}

#[test]
fn suppression_detected_exactly_when_it_matters() {
    // A suppressed input is a promise violation iff the victim's route
    // was strictly shorter than every remaining route — otherwise the
    // exported route (and the monotone-closure bit vector) is unchanged
    // and there is, by the paper's §2 definition, nothing to detect:
    // "A violation occurs whenever an AS emits a route that was not in
    // its permitted set."
    let lens = [4usize, 2, 5, 3];
    for (i, &victim_len) in lens.iter().enumerate() {
        let bed = Figure1Bed::build(&lens, 31 + i as u64);
        let victim = bed.ns[i];
        let report = run_min_round(&bed, Some(Misbehavior::SuppressInput { victim }));

        let min_of_others =
            lens.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &l)| l).min().unwrap();
        let is_violation = victim_len < min_of_others;
        assert_eq!(
            report.detected(),
            is_violation,
            "victim index {i} (len {victim_len}, others' min {min_of_others})"
        );
        if is_violation {
            assert!(
                report.outcomes[&victim].detected(),
                "the victim itself must see its zeroed bit"
            );
            assert!(report.convicted(), "victim index {i}");
        }
    }
}

#[test]
fn suppressing_non_minimal_routes_is_not_a_violation() {
    // Dropping the longest route from the bits leaves the output in the
    // permitted set; honest verifiers must NOT raise alarms (no false
    // positives — the Accuracy property from the verifier side).
    let bed = Figure1Bed::build(&[2, 3, 5], 47);
    let victim = *bed.ns.last().unwrap(); // length 5, min stays 2
    let report = run_min_round(&bed, Some(Misbehavior::SuppressInput { victim }));
    assert!(!report.detected(), "{:?}", report.outcomes);
    assert!(!report.convicted());
}

#[test]
fn colluding_victim_cannot_frame_honest_a() {
    // Accuracy, adversarial accuser: a Byzantine N_i takes an honest
    // round's disclosure and tries to forge evidence from it. The
    // auditor must reject every attempt.
    use pvr::core::{Auditor, Evidence};
    let bed = Figure1Bed::build(&[2, 4], 55);
    let c = bed.honest_committer();
    let auditor = Auditor::new(&bed.keys, bed.params);

    // Forgery 1: claim the bit at my length is 0 by presenting the bit
    // at a *different* index with a relabeled index field.
    let honest_reveal = c.reveal_bit(1).unwrap(); // min is 2 → bit 1 is 0
    let ev = Evidence::IgnoredInput {
        signed_root: c.signed_root().clone(),
        reveal: honest_reveal,
        provided: bed.input_of(bed.ns[0]).clone(), // length-2 route
    };
    // bit 1 IS 0 (honest min = 2), but the provided route has length 2 —
    // the auditor requires provided ≤ index.
    assert!(matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)));

    // Forgery 2: self-made "provided" route without a genuine chain.
    use pvr::bgp::{sbgp::SignedRoute, Route};
    let mut fake = Route::originate(bed.prefix);
    fake.path = fake.path.prepend(bed.ns[0]);
    let ev = Evidence::IgnoredInput {
        signed_root: c.signed_root().clone(),
        reveal: c.reveal_bit(1).unwrap(),
        provided: SignedRoute::unsigned(fake),
    };
    assert!(matches!(auditor.judge(bed.a, &bed.round, &ev), Verdict::Rejected(_)));

    // Forgery 3: evidence replayed against the wrong accused.
    let ev = Evidence::NonMonotone {
        signed_root: c.signed_root().clone(),
        lo: c.reveal_bit(2).unwrap(),
        hi: c.reveal_bit(3).unwrap(),
    };
    assert!(matches!(auditor.judge(Asn(1), &bed.round, &ev), Verdict::Rejected(_)));
}

#[test]
fn existential_protocol_properties() {
    use pvr::core::{verify_as_provider_existential, verify_as_receiver_existential};
    let bed = Figure1Bed::build(&[3, 2], 66);
    let c = bed.honest_committer();

    // Honest: everyone accepts.
    let dp = c.existential_disclosure_for_provider();
    for &n in &bed.ns {
        let o = verify_as_provider_existential(bed.a, &bed.round, &bed.inputs[&n], &dp, &bed.keys);
        assert!(o.is_accept(), "{n}: {o:?}");
    }
    let dr = c.existential_disclosure_for_receiver(bed.b);
    let o = verify_as_receiver_existential(bed.b, bed.a, &bed.round, &dr, &bed.keys);
    assert!(o.is_accept(), "{o:?}");

    // Byzantine: A denies having any route. Providers catch the zero bit.
    use pvr::core::Adversary;
    use pvr::crypto::HmacDrbg;
    let mut rng = HmacDrbg::from_u64_labeled(bed.seed, "adversary");
    let adv = Adversary::new(&bed.cast(), Misbehavior::DenyAll, &mut rng);
    // Build the existential disclosure by hand from the adversary's view:
    // the exist bit (slot 0) committed by DenyAll is 0.
    let d = pvr::core::Disclosure {
        signed_root: Some(adv.root_for(bed.ns[0]).clone()),
        bit_reveals: vec![],
        exported: None,
        graph: vec![],
    };
    // No reveal at all → suspicion for the provider.
    let o =
        verify_as_provider_existential(bed.a, &bed.round, &bed.inputs[&bed.ns[0]], &d, &bed.keys);
    assert!(o.detected());
}

#[test]
fn figure2_round_detects_tie_breaking_violation() {
    // With the Figure 2 graph, a tie between N1 and the preferred side
    // must go to the preferred side. An adversary exporting N1's
    // tie-length route violates the promise; with the min-bit protocol
    // B cannot see *which* neighbor the route came from beyond the path
    // itself — but the path names N1, so B can check the promise
    // directly from the exported route plus the committed structure.
    let bed = Figure1Bed::build_figure2(&[3, 3], 91);
    let c = bed.honest_committer();
    let exported = c.export_route(bed.b).unwrap();
    // Honest committer exports via N2 on ties (ShorterOf semantics).
    assert_eq!(exported.route.path.asns()[1], bed.ns[1]);
}
