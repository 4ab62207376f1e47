//! The bit-vector encodings of §3.2 and §3.3.
//!
//! Existential operator (§3.2): a single bit `b`, "set to 1 whenever A
//! has received at least one route".
//!
//! Minimum operator (§3.3): "Suppose the maximum AS-path length at A is
//! k. Then we can ask A to compute k bits b_1, …, b_k, such that
//! b_i = 1 iff at least one of the input routes has a path length of i
//! or less."
//!
//! The construction's privacy property (exercised by experiment E7): the
//! honest vector is the *monotone closure of the minimum* — it depends
//! only on the shortest input length, so revealing all bits to `B`
//! discloses nothing beyond the route `B` receives anyway, and
//! revealing `b_{|r_i|}` to `N_i` only confirms what §2.3 calls
//! information "already revealed by standard BGP".

use pvr_bgp::Route;

/// The single existential bit of §3.2.
pub fn existential_bit(inputs: &[&Route]) -> bool {
    !inputs.is_empty()
}

/// The bit a route of `path_len` hops is judged at: `min(path_len,
/// max_len)`. The vector has no bit past `max_len` ("the maximum
/// AS-path length at A", §3.3), so a longer route counts as `max_len`
/// hops — when A commits, when a provider checks its own bit, when B
/// compares the export with the claimed minimum, and when the auditor
/// rules. This is the only statement of that rule.
pub fn judged_bit(path_len: usize, max_len: usize) -> usize {
    path_len.min(max_len)
}

/// The bit A's export is judged at: its length without A's own
/// prepend, under [`judged_bit`].
pub fn export_bit(exported: &Route, max_len: usize) -> usize {
    judged_bit(exported.path_len().saturating_sub(1), max_len)
}

/// The §3.3 bit vector: `bits[i-1] = b_i = 1 ⟺ ∃ input judged at a bit
/// ≤ i` ([`judged_bit`]), for `i` in `1..=max_len`.
pub fn min_bit_vector(inputs: &[&Route], max_len: usize) -> Vec<bool> {
    let min = inputs.iter().map(|r| judged_bit(r.path_len(), max_len)).min();
    (1..=max_len).map(|i| min.is_some_and(|m| m <= i)).collect()
}

/// The index `i` (1-based) of the first set bit, i.e. the shortest input
/// length the vector claims — what `B` must compare the exported route
/// against.
pub fn claimed_min(bits: &[bool]) -> Option<usize> {
    bits.iter().position(|&b| b).map(|p| p + 1)
}

/// Checks the §3.3 monotonicity condition `B` enforces: "if some b_i is
/// set to 1, then all the b_j, j > i, must also be set to 1". Returns
/// the violating index pair on failure.
pub fn check_monotone(bits: &[bool]) -> Result<(), (usize, usize)> {
    let mut first_one = None;
    for (idx, &b) in bits.iter().enumerate() {
        match (first_one, b) {
            (None, true) => first_one = Some(idx),
            (Some(lo), false) => return Err((lo + 1, idx + 1)),
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pvr_bgp::{AsPath, Asn, Prefix};

    fn route(len: usize) -> Route {
        let mut r = Route::originate(Prefix::parse("10.0.0.0/8").unwrap());
        r.path = AsPath::from_slice(&(0..len).map(|i| Asn(i as u32 + 1)).collect::<Vec<_>>());
        r
    }

    #[test]
    fn existential_bit_basic() {
        assert!(!existential_bit(&[]));
        let r = route(2);
        assert!(existential_bit(&[&r]));
    }

    #[test]
    fn vector_is_monotone_closure_of_min() {
        let r3 = route(3);
        let r5 = route(5);
        let bits = min_bit_vector(&[&r3, &r5], 8);
        assert_eq!(bits, vec![false, false, true, true, true, true, true, true]);
        assert_eq!(claimed_min(&bits), Some(3));
        assert!(check_monotone(&bits).is_ok());
    }

    #[test]
    fn empty_inputs_give_zero_vector() {
        let bits = min_bit_vector(&[], 5);
        assert_eq!(bits, vec![false; 5]);
        assert_eq!(claimed_min(&bits), None);
        assert!(check_monotone(&bits).is_ok());
    }

    #[test]
    fn privacy_vector_depends_only_on_min() {
        // The paper's confidentiality hinges on this: {3,5} and {3,9,12}
        // (truncated at max_len) produce identical vectors.
        let a = [route(3), route(5)];
        let b = [route(3), route(9), route(12)];
        let va = min_bit_vector(&a.iter().collect::<Vec<_>>(), 16);
        let vb = min_bit_vector(&b.iter().collect::<Vec<_>>(), 16);
        assert_eq!(va, vb);
    }

    #[test]
    fn zero_length_local_route_sets_all_bits() {
        // A locally originated route (0 hops) is ≤ every i ≥ 1.
        let r = route(0);
        let bits = min_bit_vector(&[&r], 4);
        assert_eq!(bits, vec![true; 4]);
        assert_eq!(claimed_min(&bits), Some(1));
    }

    #[test]
    fn route_longer_than_max_len_is_judged_at_max_len() {
        let r = route(10);
        let bits = min_bit_vector(&[&r], 4);
        assert_eq!(bits, vec![false, false, false, true]);
    }

    #[test]
    fn monotonicity_violations_detected() {
        assert_eq!(check_monotone(&[false, true, false, true]), Err((2, 3)));
        assert_eq!(check_monotone(&[true, false]), Err((1, 2)));
        assert!(check_monotone(&[false, false]).is_ok());
        assert!(check_monotone(&[true, true]).is_ok());
        assert!(check_monotone(&[]).is_ok());
    }

    proptest! {
        #[test]
        fn prop_honest_vectors_are_monotone(lens in proptest::collection::vec(0usize..20, 0..6),
                                            max_len in 1usize..24) {
            let routes: Vec<Route> = lens.iter().map(|&l| route(l)).collect();
            let refs: Vec<&Route> = routes.iter().collect();
            let bits = min_bit_vector(&refs, max_len);
            prop_assert!(check_monotone(&bits).is_ok());
        }

        #[test]
        fn prop_claimed_min_matches_actual(lens in proptest::collection::vec(1usize..12, 1..6)) {
            let routes: Vec<Route> = lens.iter().map(|&l| route(l)).collect();
            let refs: Vec<&Route> = routes.iter().collect();
            let bits = min_bit_vector(&refs, 16);
            prop_assert_eq!(claimed_min(&bits), lens.iter().min().copied());
        }

        #[test]
        fn prop_bit_at_own_length_is_set(lens in proptest::collection::vec(1usize..12, 1..6)) {
            // The N_i check: every provider's own length bit must be 1.
            let routes: Vec<Route> = lens.iter().map(|&l| route(l)).collect();
            let refs: Vec<&Route> = routes.iter().collect();
            let bits = min_bit_vector(&refs, 16);
            for &l in &lens {
                prop_assert!(bits[l - 1], "bit at length {} must be set", l);
            }
        }
    }
}
