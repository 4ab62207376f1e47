//! The detection matrix: every Byzantine strategy vs. every check.
//!
//! Exercises the paper's four properties (§2.3) across the full
//! adversary catalog, printing who detects what, with which evidence,
//! and how the third-party auditor rules. Also runs the same attacks
//! over the network simulator (messages, latency, gossip as traffic).
//!
//! Run with: `cargo run --example misbehavior`

use pvr::core::simproto::build_sim_round;
use pvr::core::{run_min_round, Figure1Bed, Misbehavior, Outcome, Verdict};

fn main() {
    println!("=== PVR detection matrix ===\n");
    let bed = Figure1Bed::build(&[2, 3, 5], 4242);
    println!("scenario: providers with path lengths 2/3/5, A promised B the shortest\n");

    let victim = bed.ns[0];
    let behaviors: Vec<(&str, Option<Misbehavior>)> = vec![
        ("honest", None),
        ("export-longer", Some(Misbehavior::ExportLonger)),
        ("suppress-input", Some(Misbehavior::SuppressInput { victim })),
        ("deny-all", Some(Misbehavior::DenyAll)),
        ("equivocate", Some(Misbehavior::Equivocate { victim })),
        ("non-monotone-bits", Some(Misbehavior::NonMonotoneBits)),
        ("fabricate-export", Some(Misbehavior::FabricateExport)),
        ("refuse-reveal", Some(Misbehavior::RefuseReveal { victim })),
        ("corrupt-opening", Some(Misbehavior::CorruptOpening { victim })),
    ];

    println!(
        "{:<20} {:>9} {:>10} {:>9}  detectors / evidence",
        "behavior", "detected", "evidence", "guilty"
    );
    println!("{}", "-".repeat(78));
    for (name, behavior) in &behaviors {
        let report = run_min_round(&bed, behavior.clone());
        let detectors: Vec<String> = report
            .outcomes
            .iter()
            .filter(|(_, o)| o.detected())
            .map(|(asn, o)| match o {
                Outcome::Accuse(e) => format!("{asn}:{}", e.kind()),
                Outcome::Suspect(s) => format!("{asn}:suspect({s:?})"),
                Outcome::Accept => unreachable!(),
            })
            .collect();
        let mut all = detectors;
        if report.gossip_evidence.is_some() {
            all.push("gossip:equivocation".to_string());
        }
        let guilty = report.verdicts.iter().filter(|(_, v)| *v == Verdict::Guilty).count();
        println!(
            "{:<20} {:>9} {:>10} {:>9}  {}",
            name,
            report.detected(),
            report.verdicts.len(),
            guilty,
            if all.is_empty() { "-".to_string() } else { all.join(", ") }
        );

        // The paper's properties, asserted:
        match behavior {
            None => assert!(report.clean(), "Accuracy violated"),
            Some(Misbehavior::RefuseReveal { .. }) | Some(Misbehavior::CorruptOpening { .. }) => {
                // Omission faults: Detection without transferable Evidence.
                assert!(report.detected());
                assert!(!report.convicted());
            }
            Some(_) => {
                assert!(report.detected(), "{name}: Detection violated");
                assert!(report.convicted(), "{name}: Evidence violated");
                for (_, v) in &report.verdicts {
                    assert_eq!(*v, Verdict::Guilty, "{name}: weak accusation");
                }
            }
        }
    }

    println!("\n--- the same attacks as live network traffic ---\n");
    for (name, behavior) in &behaviors {
        let mut round = build_sim_round(bed.cast(), behavior.clone(), bed.seed, 99);
        let report = round.run();
        println!(
            "{:<20} detected={:<5} messages={:<4} bytes={}",
            name,
            report.detected(),
            round.sim.stats().delivered,
            round.sim.stats().bytes_sent
        );
        match behavior {
            None => assert!(!report.detected()),
            Some(_) => assert!(report.detected()),
        }
    }

    println!("\nAll four §2.3 properties verified: Detection, Evidence,");
    println!("Accuracy (honest runs are clean, forged evidence is rejected),");
    println!("and Confidentiality (see the E7 integration tests).");
}
