//! BGP session messages.
//!
//! Only UPDATE is modeled — OPEN/KEEPALIVE/NOTIFICATION manage TCP
//! sessions, which the simulator abstracts away (documented omission;
//! session churn is orthogonal to the paper's mechanisms).

use crate::sbgp::SignedRoute;
use crate::types::Prefix;
use pvr_crypto::encoding::Wire;
use pvr_netsim::Payload;
use std::collections::{HashMap, HashSet};

/// A BGP UPDATE: announcements (possibly attested) plus withdrawals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BgpUpdate {
    /// New/replacement routes.
    pub announces: Vec<SignedRoute>,
    /// Prefixes no longer reachable via the sender.
    pub withdraws: Vec<Prefix>,
}

impl BgpUpdate {
    /// True if the update carries nothing.
    pub fn is_empty(&self) -> bool {
        self.announces.is_empty() && self.withdraws.is_empty()
    }

    /// Merges `newer` into `self` with BGP replacement semantics: for
    /// each prefix the *latest* action wins — a new announcement
    /// supersedes a buffered announcement or withdrawal for the same
    /// prefix, and a withdrawal cancels a buffered announcement. Used by
    /// the MRAI buffer.
    ///
    /// Runs in O(n) expected over the two updates' entries (per-prefix
    /// hash maps; the pre-E14 `retain`/`contains` scans made a flush of
    /// n buffered prefixes O(n²)). Output order is deterministic and
    /// identical to the sequential one-at-a-time semantics: surviving
    /// buffered entries keep their order, then newer entries follow in
    /// arrival order (for duplicated announce prefixes, the position of
    /// the last occurrence; for duplicated withdraws, the first).
    pub fn merge(&mut self, newer: BgpUpdate) {
        if newer.is_empty() {
            return;
        }
        // Final per-prefix action of `newer`: announces supersede
        // withdraws for the same prefix; a later announce supersedes an
        // earlier one (keyed by last occurrence).
        let mut last_announce: HashMap<Prefix, usize> =
            HashMap::with_capacity(newer.announces.len());
        for (i, a) in newer.announces.iter().enumerate() {
            last_announce.insert(a.route.prefix, i);
        }
        let newer_withdraws: HashSet<Prefix> = newer.withdraws.iter().copied().collect();

        // Buffered announces survive unless `newer` touched the prefix.
        self.announces.retain(|sr| {
            !newer_withdraws.contains(&sr.route.prefix)
                && !last_announce.contains_key(&sr.route.prefix)
        });
        // Buffered withdraws survive unless re-announced.
        self.withdraws.retain(|p| !last_announce.contains_key(p));

        // Newer withdraws append in first-occurrence order, skipping
        // prefixes that are re-announced later in the same update or
        // already buffered as withdrawn.
        let mut present: HashSet<Prefix> = self.withdraws.iter().copied().collect();
        for w in newer.withdraws {
            if !last_announce.contains_key(&w) && present.insert(w) {
                self.withdraws.push(w);
            }
        }
        // Newer announces append in last-occurrence order.
        for (i, a) in newer.announces.into_iter().enumerate() {
            if last_announce.get(&a.route.prefix) == Some(&i) {
                self.announces.push(a);
            }
        }
    }
}

pvr_crypto::wire_struct!(BgpUpdate { announces, withdraws });

impl Payload for BgpUpdate {
    /// Arithmetic size: every sent message is measured for the
    /// bytes-on-wire statistics, and the pre-E14 implementation
    /// allocated and encoded the entire update (attestation chains
    /// included) just to read off a length.
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;
    use crate::types::Asn;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    #[test]
    fn empty_detection() {
        assert!(BgpUpdate::default().is_empty());
        let upd = BgpUpdate {
            announces: vec![SignedRoute::unsigned(Route::originate(prefix()))],
            withdraws: vec![],
        };
        assert!(!upd.is_empty());
        let upd = BgpUpdate { announces: vec![], withdraws: vec![prefix()] };
        assert!(!upd.is_empty());
    }

    #[test]
    fn wire_size_reflects_content() {
        let empty = BgpUpdate::default();
        let full = BgpUpdate {
            announces: vec![SignedRoute::unsigned(Route::originate(prefix()))],
            withdraws: vec![prefix()],
        };
        assert!(full.wire_size() > empty.wire_size());
        assert_eq!(empty.wire_size(), empty.to_wire().len());
    }

    /// Reference implementation of the pre-E14 sequential merge; the
    /// per-prefix-map rebuild must match it action for action.
    fn merge_reference(base: &mut BgpUpdate, newer: BgpUpdate) {
        for w in newer.withdraws {
            base.announces.retain(|sr| sr.route.prefix != w);
            if !base.withdraws.contains(&w) {
                base.withdraws.push(w);
            }
        }
        for a in newer.announces {
            base.withdraws.retain(|&p| p != a.route.prefix);
            base.announces.retain(|sr| sr.route.prefix != a.route.prefix);
            base.announces.push(a);
        }
    }

    fn announce_for(p: Prefix, via: u32) -> SignedRoute {
        SignedRoute::unsigned(Route::originate(p).propagated_by(Asn(via)))
    }

    #[test]
    fn merge_replacement_semantics() {
        let p = |i: u32| Prefix::new(i << 8, 24);
        let mut buffered = BgpUpdate {
            announces: vec![announce_for(p(1), 10), announce_for(p(2), 10)],
            withdraws: vec![p(3), p(4)],
        };
        let newer = BgpUpdate {
            // p2 replaced by a newer announce; p3 re-announced (cancels
            // the buffered withdraw); p5 announced twice (last wins);
            // p1 withdrawn (cancels the buffered announce); p4
            // withdrawn again (no duplicate).
            announces: vec![
                announce_for(p(2), 20),
                announce_for(p(3), 20),
                announce_for(p(5), 20),
                announce_for(p(5), 21),
            ],
            withdraws: vec![p(1), p(4), p(6)],
        };
        let mut expect = buffered.clone();
        merge_reference(&mut expect, newer.clone());
        buffered.merge(newer);
        assert_eq!(buffered, expect);
        let vias: Vec<u32> =
            buffered.announces.iter().map(|sr| sr.route.path.first_as().unwrap().0).collect();
        assert_eq!(vias, vec![20, 20, 21], "p2, p3, then the second p5 announce");
        assert_eq!(buffered.withdraws, vec![p(4), p(1), p(6)]);
    }

    /// MRAI-buffer scale case: ~1k prefixes of churn merged in a few
    /// batches must match the sequential reference exactly (and in
    /// order). This is the workload whose `retain`/`contains` scans
    /// were O(n²) per flush before the per-prefix-map rebuild.
    #[test]
    fn merge_matches_reference_at_1k_prefixes() {
        use pvr_crypto::drbg::HmacDrbg;
        let mut rng = HmacDrbg::new(b"merge 1k");
        let p = |i: u64| Prefix::new((i as u32) << 8, 24);
        let mut fast = BgpUpdate::default();
        let mut reference = BgpUpdate::default();
        for _batch in 0..8 {
            let mut newer = BgpUpdate::default();
            for _ in 0..256 {
                let prefix = p(rng.below(1000));
                if rng.chance(0.3) {
                    newer.withdraws.push(prefix);
                } else {
                    newer.announces.push(announce_for(prefix, 100 + rng.below(50) as u32));
                }
            }
            fast.merge(newer.clone());
            merge_reference(&mut reference, newer);
            assert_eq!(fast, reference);
        }
        // Sanity: the final buffer really is per-prefix deduplicated.
        let mut seen = std::collections::BTreeSet::new();
        for sr in &fast.announces {
            assert!(seen.insert(sr.route.prefix), "duplicate announce");
        }
        for w in &fast.withdraws {
            assert!(seen.insert(*w), "withdraw overlaps announce or duplicates");
        }
    }
}
