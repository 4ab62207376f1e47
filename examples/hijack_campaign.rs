//! An adversarial campaign end to end: sweep the attack catalog over an
//! Internet-like topology under plain BGP, S-BGP+ROV, and PVR, then
//! zoom into the one attack signed infrastructure cannot see — the
//! route leak — and show the gossip audit catching it.
//!
//! Run with: `cargo run --release --example hijack_campaign`

use pvr::attack::{
    leak_gossip_audit, AttackKind, Campaign, CampaignConfig, SecurityMode, CAMPAIGN_INTERNET,
};
use pvr::bgp::{InstantiateOptions, Malice};
use pvr::netsim::RunLimits;

fn main() {
    println!("=== PVR attack campaign ===\n");
    let campaign = Campaign::new(CampaignConfig::quick(12));
    let placement = campaign.placement();
    println!(
        "attacker {} vs victim {} ({}), {} cells on the parallel sweep\n",
        placement.attacker,
        placement.victim,
        placement.victim_prefix,
        campaign.cell_count()
    );
    let report = campaign.run();
    print!("{}", report.render_matrix());

    println!("\nheadlines:");
    let hijack_like = [AttackKind::Hijack, AttackKind::Attestation, AttackKind::Leak];
    println!(
        "  plain BGP      : min poisoned fraction {:.0}% across hijack-family attacks, 0 detected",
        report.min_poisoned(&hijack_like, SecurityMode::Plain) * 100.0
    );
    println!(
        "  signed (S-BGP) : leak still poisons {:.0}% and detection rate is {:.0}%",
        report.min_poisoned(&[AttackKind::Leak], SecurityMode::Signed) * 100.0,
        report.detection_rate(&[AttackKind::Leak], SecurityMode::Signed) * 100.0
    );
    let verifiable = [AttackKind::Attestation, AttackKind::Promise, AttackKind::Protocol];
    println!(
        "  pvr            : {:.0}% of attestation/promise/protocol attacks detected",
        report.detection_rate(&verifiable, SecurityMode::Pvr) * 100.0
    );

    // Zoom in: mount the leak by hand and print the gossip evidence.
    println!("\n--- the route leak, up close ---\n");
    let topology = pvr::bgp::internet_like(CAMPAIGN_INTERNET, 12);
    let attacker = placement.attacker;
    let mut net = topology.instantiate(InstantiateOptions::default());
    net.router_mut(attacker).set_malice(Malice { leak_all: true });
    net.converge(RunLimits::none());
    let evidence = leak_gossip_audit(&net, attacker);
    println!("gossip audit against {attacker}: {} valley(s) found", evidence.len());
    for e in evidence.iter().take(5) {
        println!(
            "  {} reports: {} exported {} (learned from {}) uphill — path {:?}",
            e.reporter, attacker, e.prefix, e.upstream, e.path
        );
    }
    assert!(!evidence.is_empty(), "the leak must be visible to the audit");
    println!("\neach piece of evidence pools only what its two reporters already knew —");
    println!("no private relationship is revealed to anyone it wasn't already visible to.");
}
