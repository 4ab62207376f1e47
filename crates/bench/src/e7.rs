//! E7 — §2.3 Confidentiality: counterfactual audit summary.

use crate::recipe::row;
use crate::{Cfg, Report};
use pvr_bgp::Asn;
use pvr_core::confidential::counterfactual_min_audit;

pub fn run(_: &Cfg) -> Report {
    let mut out = String::new();
    row!(out, "E7: counterfactual indistinguishability audit (§2.3)");
    row!(
        out,
        "{:<28} {:<14} {:>10} {:>14}",
        "worlds (lens A vs B)",
        "authorized",
        "leaks",
        "raw-differs"
    );
    let cases: Vec<(&[usize], &[usize], Vec<Asn>)> = vec![
        (&[2, 3], &[2, 5], vec![Asn(2)]),
        (&[2, 9, 12, 5], &[2, 3, 4, 16], vec![Asn(2), Asn(3), Asn(4)]),
        (&[2, 4, 6], &[2, 4, 9], vec![Asn(3)]),
        (&[3, 3], &[3, 3], vec![]),
    ];
    for (a, b, authorized) in cases {
        let outcome = counterfactual_min_audit(a, b, 7);
        let leaks =
            outcome.content_changed.iter().filter(|(n, &c)| c && !authorized.contains(n)).count();
        let raw = outcome.raw_changed.values().filter(|&&c| c).count();
        row!(
            out,
            "{:<28} {:<14} {:>10} {:>14}",
            format!("{a:?} vs {b:?}"),
            format!("{authorized:?}"),
            leaks,
            raw
        );
    }
    row!(out, "(expected: leaks column all zeros — only opaque commitment");
    row!(out, " material may differ, never opened content)");
    out.into()
}
