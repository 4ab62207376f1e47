//! E12 — adversarial campaigns: the attack catalog (hijacks, leaks,
//! forged chains, bogus promises, Byzantine protocol behaviors) run
//! from one attacker/victim placement on an Internet-like topology, under
//! Plain / Signed / Pvr security, scored for impact and detection, and
//! executed on the deterministic parallel sweep.

use crate::recipe::row;
use crate::{Cfg, Report};
use pvr_attack::{Campaign, CampaignConfig, SecurityMode, CAMPAIGN_INTERNET};

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E12: adversarial campaign matrix (attack × security mode)");
    let config = CampaignConfig::quick(12);
    let campaign = Campaign::new(config.clone());
    let p = campaign.placement();
    row!(
        out,
        "topology: {:?} seed {}; attacker {} vs victim {} ({}); {} cells",
        CAMPAIGN_INTERNET,
        config.seed,
        p.attacker,
        p.victim,
        p.victim_prefix,
        campaign.cell_count()
    );
    let report = campaign.run();
    out.push_str(&report.render_matrix());

    // Determinism of the parallel executor, demonstrated on a cheap
    // Plain-only sub-campaign (no keygen): one thread vs many.
    let mini = CampaignConfig {
        modes: vec![SecurityMode::Plain],
        parallelism: 1,
        ..CampaignConfig::quick(12)
    };
    let serial = Campaign::new(mini.clone()).run();
    let parallel = Campaign::new(CampaignConfig { parallelism: 8, ..mini }).run();
    row!(
        out,
        "parallel sweep == single-threaded sweep (same seed): {}",
        serial == parallel && serial.render_matrix() == parallel.render_matrix()
    );
    row!(out, "(expected: plain column poisons on every hijack/leak/attestation row");
    row!(out, " with zero detection; signed blocks hijacks and chain forgeries via");
    row!(out, " ROV+attestations but misses the leak and every promise/protocol row;");
    row!(out, " pvr detects all of them; sweep output independent of thread count)");
    out.into()
}
