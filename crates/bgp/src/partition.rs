//! Deterministic AS → shard assignment.
//!
//! The simulator's outputs are identical for *any* node placement (see
//! DESIGN.md, "The engine"), so the partitioner only has to
//! optimize load balance — and be a pure function of the topology, so
//! that every run at a given shard count dispatches the same windows.
//!
//! Strategy: order ASes by degree (descending, ASN ascending as the
//! tie-break) and deal them round-robin. Degree tracks per-node event
//! load in BGP convergence — a tier-1 hub receives and fans out a
//! multiple of a stub's updates — so dealing the heavy hitters first
//! spreads both node count (within one per shard) and expected work.
//! Edge locality is deliberately not optimized: every action crosses
//! the exchange phase regardless of whether its endpoints share a
//! shard, so a min-cut layout would buy nothing.

use crate::topology::Topology;
use crate::types::Asn;
use std::collections::BTreeMap;

/// Assigns every AS in `topology` to a shard in `0..shards`.
/// Deterministic in the topology alone; shard sizes differ by at most
/// one.
pub fn partition_by_degree(topology: &Topology, shards: usize) -> BTreeMap<Asn, usize> {
    assert!(shards >= 1, "at least one shard required");
    let mut degree: BTreeMap<Asn, usize> = topology.ases().map(|a| (a, 0usize)).collect();
    let mut bump = |asn: Asn| {
        if let Some(d) = degree.get_mut(&asn) {
            *d += 1;
        }
    };
    for edge in topology.edges() {
        let (a, b) = edge.endpoints();
        bump(a);
        bump(b);
    }
    let mut order: Vec<(Asn, usize)> = degree.into_iter().collect();
    order.sort_by(|&(a, da), &(b, db)| db.cmp(&da).then(a.cmp(&b)));
    order.into_iter().enumerate().map(|(i, (asn, _))| (asn, i % shards)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{internet_like, InternetParams};

    fn sample() -> Topology {
        internet_like(
            InternetParams { tier1: 3, tier2: 6, stubs: 20, ..InternetParams::default() },
            7,
        )
    }

    #[test]
    fn covers_every_as_exactly_once() {
        let t = sample();
        let m = partition_by_degree(&t, 4);
        assert_eq!(m.len(), t.as_count());
        assert!(m.values().all(|&s| s < 4));
    }

    #[test]
    fn balanced_within_one() {
        let t = sample();
        for shards in 1..=8 {
            let m = partition_by_degree(&t, shards);
            let mut counts = vec![0usize; shards];
            for &s in m.values() {
                counts[s] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{shards} shards: {counts:?}");
        }
    }

    #[test]
    fn deterministic() {
        let t = sample();
        assert_eq!(partition_by_degree(&t, 3), partition_by_degree(&t, 3));
    }

    #[test]
    fn spreads_the_tier1_clique() {
        // The highest-degree ASes (tier-1s) must not pile onto one
        // shard: round-robin over the degree ordering deals them out
        // first.
        let t = sample();
        let m = partition_by_degree(&t, 3);
        let t1_shards: Vec<usize> = [10, 11, 12].iter().map(|&a| m[&Asn(a)]).collect();
        let mut unique = t1_shards.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() >= 2, "tier-1s all landed on one shard: {t1_shards:?}");
    }

    #[test]
    fn single_shard_is_total() {
        let t = sample();
        let m = partition_by_degree(&t, 1);
        assert!(m.values().all(|&s| s == 0));
    }
}
