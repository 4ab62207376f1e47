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

    /// Announcements plus withdrawals carried.
    fn len(&self) -> usize {
        self.announces.len() + self.withdraws.len()
    }

    /// Appends an announcement.
    ///
    /// Most UPDATEs a router emits carry one route, and each waits in a
    /// calendar until delivery, so the first entry reserves exactly one
    /// slot where `Vec::push` would reserve four: a one-route UPDATE
    /// holds an 80-byte heap chunk, not 272. A second entry grows the
    /// vector the usual amortized way.
    pub fn announce(&mut self, route: SignedRoute) {
        push_first_exact(&mut self.announces, route);
    }

    /// Appends a withdrawal, reserving like [`announce`](Self::announce).
    pub fn withdraw(&mut self, prefix: Prefix) {
        push_first_exact(&mut self.withdraws, prefix);
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
    ///
    /// A merge of a handful of entries — under churn nearly all of
    /// them: one new entry into a buffer holding none or one — applies
    /// those sequential semantics directly, where the scans are a few
    /// comparisons and building three hash tables is the whole cost.
    /// A single entry merged into an empty buffer cannot conflict with
    /// anything, so it is taken as it is, with its one-slot vector.
    pub fn merge(&mut self, newer: BgpUpdate) {
        if newer.is_empty() {
            return;
        }
        if self.is_empty() && newer.len() == 1 {
            *self = newer;
        } else if self.len() + newer.len() <= Self::MERGE_BY_SCAN_MAX {
            self.merge_by_scan(newer);
        } else {
            self.merge_by_hash(newer);
        }
    }

    /// Most entries, buffered and newer together, that [`merge`]
    /// handles with linear scans instead of hash tables.
    ///
    /// [`merge`]: BgpUpdate::merge
    const MERGE_BY_SCAN_MAX: usize = 8;

    /// [`merge`](BgpUpdate::merge), one entry of `newer` at a time:
    /// quadratic, allocation-free, and the definition of the order the
    /// hash-table path reproduces.
    fn merge_by_scan(&mut self, newer: BgpUpdate) {
        for w in newer.withdraws {
            self.announces.retain(|sr| sr.route.prefix != w);
            if !self.withdraws.contains(&w) {
                self.withdraws.push(w);
            }
        }
        for a in newer.announces {
            let prefix = a.route.prefix;
            self.withdraws.retain(|&p| p != prefix);
            self.announces.retain(|sr| sr.route.prefix != prefix);
            self.announces.push(a);
        }
    }

    /// [`merge`](BgpUpdate::merge) through per-prefix hash tables.
    fn merge_by_hash(&mut self, newer: BgpUpdate) {
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

/// `list.push(item)`, except that an empty `list` reserves one slot.
fn push_first_exact<T>(list: &mut Vec<T>, item: T) {
    if list.capacity() == 0 {
        list.reserve_exact(1);
    }
    list.push(item);
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
    use proptest::prelude::*;

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

    fn announce_for(p: Prefix, via: u32) -> SignedRoute {
        SignedRoute::unsigned(Route::originate(p).propagated_by(Asn(via)))
    }

    /// A one-route UPDATE holds one slot per vector it uses; more
    /// entries grow the usual way.
    #[test]
    fn first_entry_reserves_one_slot() {
        let p = |i: u32| Prefix::new(i << 8, 24);
        let mut update = BgpUpdate::default();
        update.announce(announce_for(p(1), 10));
        update.withdraw(p(2));
        assert_eq!((update.announces.capacity(), update.withdraws.capacity()), (1, 1));
        update.announce(announce_for(p(3), 10));
        update.withdraw(p(4));
        assert!(update.announces.capacity() >= 2 && update.withdraws.capacity() >= 2);
        assert_eq!(update.announces.len() + update.withdraws.len(), 4);
    }

    /// The MRAI buffer keeps a lone entry merged into it as it came,
    /// one-slot vector included; what follows merges as always.
    #[test]
    fn merge_into_empty_buffer_keeps_a_lone_entry() {
        let p = |i: u32| Prefix::new(i << 8, 24);
        for lone in [true, false] {
            let mut newer = BgpUpdate::default();
            if lone {
                newer.announce(announce_for(p(1), 10));
            } else {
                newer.withdraw(p(1));
            }
            let mut buffer = BgpUpdate::default();
            buffer.merge(newer.clone());
            assert_eq!(buffer, newer);
            assert_eq!(buffer.announces.capacity() + buffer.withdraws.capacity(), 1);
        }
        let mut buffer = BgpUpdate::default();
        buffer.merge(BgpUpdate { announces: vec![announce_for(p(1), 10)], withdraws: vec![] });
        buffer.merge(BgpUpdate { announces: vec![], withdraws: vec![p(1)] });
        assert_eq!(buffer, BgpUpdate { announces: vec![], withdraws: vec![p(1)] });
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
        // Eleven entries: past the scan threshold, so `merge` takes the
        // hash-table path; the sequential scan is the reference.
        let mut expect = buffered.clone();
        expect.merge_by_scan(newer.clone());
        buffered.merge(newer);
        assert_eq!(buffered, expect);
        let vias: Vec<u32> =
            buffered.announces.iter().map(|sr| sr.route.path.first_as().unwrap().0).collect();
        assert_eq!(vias, vec![20, 20, 21], "p2, p3, then the second p5 announce");
        assert_eq!(buffered.withdraws, vec![p(4), p(1), p(6)]);
    }

    proptest! {
        /// Around the scan threshold — 0 to 12 entries a side, over six
        /// prefixes so that they collide within `newer` and across the
        /// two updates — the scan path, the hash-table path and
        /// whichever of them `merge` picks agree entry for entry.
        #[test]
        fn merge_paths_agree_on_small_updates(
            buffered in proptest::collection::vec((0u32..6, any::<bool>()), 0..=12),
            newer in proptest::collection::vec((0u32..6, any::<bool>()), 0..=12),
        ) {
            let p = |i: u32| Prefix::new(i << 8, 24);
            let update = |entries: &[(u32, bool)], via: u32| {
                let mut update = BgpUpdate::default();
                for (i, &(prefix, withdraw)) in entries.iter().enumerate() {
                    if withdraw {
                        update.withdraws.push(p(prefix));
                    } else {
                        update.announces.push(announce_for(p(prefix), via + i as u32));
                    }
                }
                update
            };
            // A buffer is itself the product of merges: no prefix twice.
            let mut base = BgpUpdate::default();
            base.merge_by_scan(update(&buffered, 100));
            let newer = update(&newer, 200);
            let (mut scanned, mut hashed, mut merged) = (base.clone(), base.clone(), base);
            scanned.merge_by_scan(newer.clone());
            hashed.merge_by_hash(newer.clone());
            merged.merge(newer);
            prop_assert_eq!(&hashed, &scanned);
            prop_assert_eq!(&merged, &scanned);
        }
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
            reference.merge_by_scan(newer);
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
