//! Integration: the E12 campaign engine's headline claims.
//!
//! These are the acceptance criteria for the attack subsystem: plain
//! BGP is poisoned by every hijack-family strategy, signed BGP still
//! misses route leaks and promise violations, PVR detects all of the
//! attestation/promise/protocol attacks plus the leak, and the parallel
//! sweep is bit-deterministic.

use pvr::attack::{
    leak_gossip_audit, AttackKind, Campaign, CampaignConfig, SecurityMode, CAMPAIGN_INTERNET,
};
use pvr::bgp::{internet_like, InstantiateOptions};
use pvr::netsim::RunLimits;

#[test]
fn campaign_matrix_invariants() {
    let campaign = Campaign::new(CampaignConfig::quick(12));
    let report = campaign.run();

    let hijack_like = [AttackKind::Hijack, AttackKind::Attestation, AttackKind::Leak];
    // Plain BGP: every routing-plane attack moves traffic, nobody notices.
    assert!(
        report.min_poisoned(&hijack_like, SecurityMode::Plain) > 0.0,
        "some hijack-family strategy failed to poison plain BGP:\n{}",
        report.render_matrix()
    );
    assert_eq!(report.detection_rate(&hijack_like, SecurityMode::Plain), 0.0);

    // Signed BGP: hijacks and chain forgeries are blocked outright…
    for kind in [AttackKind::Hijack, AttackKind::Attestation] {
        for cell in report.cells.iter().filter(|c| c.kind == kind) {
            if cell.mode != SecurityMode::Plain {
                assert!(
                    cell.outcome.blocked,
                    "{} not blocked under {:?}",
                    cell.strategy, cell.mode
                );
                assert!(cell.outcome.detected);
                assert!(
                    cell.outcome.detection_time.is_some(),
                    "{}: substrate detection must be timestamped",
                    cell.strategy
                );
            }
        }
    }
    // …but the route leak sails through signed infrastructure unseen.
    assert!(report.min_poisoned(&[AttackKind::Leak], SecurityMode::Signed) > 0.0);
    assert_eq!(report.detection_rate(&[AttackKind::Leak], SecurityMode::Signed), 0.0);

    // PVR: 100% detection of attestation, promise, and protocol attacks,
    // and the gossip audit catches the leak.
    let verifiable = [AttackKind::Attestation, AttackKind::Promise, AttackKind::Protocol];
    assert_eq!(
        report.detection_rate(&verifiable, SecurityMode::Pvr),
        1.0,
        "pvr must detect every attestation/promise/protocol attack:\n{}",
        report.render_matrix()
    );
    assert_eq!(report.detection_rate(&[AttackKind::Leak], SecurityMode::Pvr), 1.0);

    // Promise/protocol attacks live below the routing plane: no
    // poisoning footprint in any mode.
    for cell in &report.cells {
        if matches!(cell.kind, AttackKind::Promise | AttackKind::Protocol) {
            assert_eq!(cell.outcome.poisoned_fraction, 0.0, "{}", cell.strategy);
        }
    }

    // Chain verification runs through the network-wide cache in every
    // signed-mode cell: multi-hop propagation re-checks prefix-suffix
    // attestations, so the hit rate is structurally nonzero.
    for mode in [SecurityMode::Signed, SecurityMode::Pvr] {
        let (calls, hits) = report.verification_totals(mode);
        assert!(calls > 0, "{mode:?}: no attestation checks recorded");
        assert!(hits > 0, "{mode:?}: chain-verify cache never hit");
        assert!(hits < calls, "{mode:?}: first-sight checks cannot be hits");
    }
    assert_eq!(report.verification_totals(SecurityMode::Plain), (0, 0));
}

#[test]
fn parallel_sweep_is_bit_deterministic() {
    // Plain-only keeps this cheap (no key generation); determinism is a
    // property of the executor, not of the cells' cost.
    let base = CampaignConfig {
        modes: vec![SecurityMode::Plain],
        parallelism: 1,
        ..CampaignConfig::quick(7)
    };
    let serial = Campaign::new(base.clone()).run();
    for threads in [2usize, 5] {
        let parallel = Campaign::new(CampaignConfig { parallelism: threads, ..base.clone() }).run();
        assert_eq!(serial, parallel, "threads={threads}");
        assert_eq!(serial.render_matrix(), parallel.render_matrix(), "threads={threads}");
    }
}

#[test]
fn leak_audit_is_silent_on_honest_networks() {
    // Accuracy for the gossip audit: a converged valley-free network
    // must produce zero leak evidence against any AS.
    let topology = internet_like(CAMPAIGN_INTERNET, 5);
    let mut net = topology.instantiate(InstantiateOptions::default());
    net.converge(RunLimits::none());
    for suspect in net.ases().collect::<Vec<_>>() {
        let findings = leak_gossip_audit(&net, suspect);
        assert!(findings.is_empty(), "false accusation against {suspect}: {findings:?}");
    }
}
