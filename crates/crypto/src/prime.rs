//! Probabilistic primality testing and prime generation.
//!
//! Miller–Rabin with random bases plus a small-prime trial-division
//! prefilter, which is the standard recipe for RSA key generation. The
//! error probability after `MILLER_RABIN_ROUNDS` rounds is at most
//! 4^-rounds, far below any simulation-relevant threshold.

use crate::bignum::Ubig;
use crate::drbg::HmacDrbg;
use crate::montgomery::Montgomery;

/// Number of Miller–Rabin rounds used by [`is_probable_prime`].
pub const MILLER_RABIN_ROUNDS: usize = 32;

/// The trial-division table in front of Miller–Rabin.
struct SmallPrimes {
    /// Every prime below 8192, from a sieve of Eratosthenes.
    primes: Vec<u64>,
    /// Consecutive runs of `primes` whose product fits a `u64`, as
    /// `(product, end of run)`.
    batches: Vec<(u64, usize)>,
}

/// The table, generated once.
fn small_primes() -> &'static SmallPrimes {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<SmallPrimes> = OnceLock::new();
    PRIMES.get_or_init(|| {
        const LIMIT: usize = 8192;
        let mut is_comp = vec![false; LIMIT];
        let mut primes = Vec::new();
        for n in 2..LIMIT {
            if !is_comp[n] {
                primes.push(n as u64);
                let mut m = n * n;
                while m < LIMIT {
                    is_comp[m] = true;
                    m += n;
                }
            }
        }
        let mut batches = Vec::new();
        let mut product = 1u64;
        for (i, &p) in primes.iter().enumerate() {
            product = match product.checked_mul(p) {
                Some(product) => product,
                None => {
                    batches.push((product, i));
                    p
                }
            };
        }
        batches.push((product, primes.len()));
        SmallPrimes { primes, batches }
    })
}

/// Returns true if `n` is divisible by any sieved small prime (and is not
/// that prime itself).
///
/// A multi-limb candidate is reduced once per *batch* of primes — one
/// pass of word remainders modulo the batch's product — and each prime
/// of the batch is then tried against that one word, since `p | n` iff
/// `p | (n mod product)` when `p | product`. That is ≈ 230 passes for
/// the 1028 primes, with no allocation, where a `Ubig` remainder per
/// prime was most of RSA key generation.
fn has_small_factor(n: &Ubig) -> bool {
    let SmallPrimes { primes, batches } = small_primes();
    if n.limbs().len() <= 1 {
        // A word-sized candidate can be a table prime itself, or lie
        // below the rest of the table.
        let n = n.low_u64();
        for &p in primes {
            if p > n {
                return false;
            }
            if n % p == 0 {
                return n != p;
            }
        }
        return false;
    }
    let mut start = 0;
    for &(product, end) in batches {
        let rem = n.limbs().iter().rev().fold(0u64, |rem, &limb| {
            ((((rem as u128) << 64) | limb as u128) % product as u128) as u64
        });
        if primes[start..end].iter().any(|&p| rem % p == 0) {
            return true;
        }
        start = end;
    }
    false
}

/// Miller–Rabin probable-prime test with `rounds` random bases.
pub fn is_probable_prime(n: &Ubig, rounds: usize, rng: &mut HmacDrbg) -> bool {
    if n < &Ubig::from_u64(2) {
        return false;
    }
    if n == &Ubig::from_u64(2) || n == &Ubig::from_u64(3) {
        return true;
    }
    if n.is_even() || has_small_factor(n) {
        return false;
    }
    // Write n-1 = d * 2^s with d odd.
    let one = Ubig::one();
    let two = Ubig::from_u64(2);
    let n_minus_1 = n.sub(&one);
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let n_minus_3 = n.sub(&Ubig::from_u64(3));
    // One Montgomery context per candidate: every witness shares the
    // modulus, so the REDC precomputation amortizes over all rounds.
    let ctx = Montgomery::new(n).expect("candidate is odd and > 3 here");
    'witness: for _ in 0..rounds {
        // a uniform in [2, n-2].
        let a = Ubig::random_below(&n_minus_3, rng).add(&two);
        let mut x = ctx.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.square(&x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The candidate has its two top bits set (so products of two such primes
/// have exactly `2*bits` bits, as RSA key generation requires) and its
/// low bit set (odd).
pub fn gen_prime(bits: usize, rng: &mut HmacDrbg) -> Ubig {
    assert!(bits >= 8, "prime sizes below 8 bits are not useful here");
    loop {
        let mut candidate = Ubig::random_bits(bits, rng);
        candidate.set_bit(0);
        candidate.set_bit(bits - 2); // ensure the product of two primes fills 2*bits
        if is_probable_prime(&candidate, MILLER_RABIN_ROUNDS, rng) {
            return candidate;
        }
    }
}

/// Generates a probable prime `p` with `gcd(p-1, e) == 1`, as needed for
/// an RSA public exponent `e`.
pub fn gen_rsa_prime(bits: usize, e: &Ubig, rng: &mut HmacDrbg) -> Ubig {
    loop {
        let p = gen_prime(bits, rng);
        if p.sub(&Ubig::one()).gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> HmacDrbg {
        HmacDrbg::new(b"prime tests")
    }

    /// The per-prime loop `has_small_factor` replaced, kept as its oracle.
    fn has_small_factor_reference(n: &Ubig) -> bool {
        for &p in &small_primes().primes {
            let pb = Ubig::from_u64(p);
            if &pb > n {
                return false;
            }
            if n.rem(&pb).is_zero() {
                return n != &pb;
            }
        }
        false
    }

    #[test]
    fn batched_trial_division_matches_per_prime_loop() {
        let agree =
            |n: &Ubig| assert_eq!(has_small_factor(n), has_small_factor_reference(n), "{n}");
        // Every word-sized case around the table: the primes
        // themselves, their multiples, and past its end (8191² ≈ 67 M
        // is out of reach, 70 000 covers 8× the table's range).
        for n in 0..70_000u64 {
            agree(&Ubig::from_u64(n));
        }
        // Products of two table primes, word-sized and not, and a
        // table prime times a multi-limb cofactor.
        let SmallPrimes { primes, batches } = small_primes();
        let mut rng = rng();
        let big = Ubig::random_bits(200, &mut rng);
        for &p in primes.iter().step_by(37) {
            for &q in primes.iter().rev().step_by(41) {
                agree(&Ubig::from_u64(p * q));
                agree(&Ubig::from_u64(p * q).mul(&big));
            }
            assert!(has_small_factor(&big.mul_u64(p)));
        }
        // The last prime of every batch and the first of the next sit
        // on the seam the batching introduced.
        for &(_, end) in batches {
            for &p in &primes[end - 1..(end + 1).min(primes.len())] {
                assert!(has_small_factor(&big.mul_u64(p)), "seam prime {p}");
            }
        }
        // 256-bit randoms, as key generation draws them (mostly with a
        // small factor, some without).
        let mut without = 0;
        for _ in 0..2000 {
            let mut n = Ubig::random_bits(256, &mut rng);
            n.set_bit(0);
            agree(&n);
            without += !has_small_factor(&n) as usize;
        }
        assert!(without > 100, "only {without} of 2000 odd candidates survived");
    }

    #[test]
    fn small_known_primes() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 8191, 524287, 2147483647] {
            assert!(is_probable_prime(&Ubig::from_u64(p), 16, &mut r), "{p} should be prime");
        }
    }

    #[test]
    fn small_known_composites() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 21, 561, 1105, 6601, 8911, 2147483647 + 2] {
            assert!(!is_probable_prime(&Ubig::from_u64(c), 16, &mut r), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 41041, 825265, 321197185] {
            assert!(!is_probable_prime(&Ubig::from_u64(c), 16, &mut r));
        }
    }

    #[test]
    fn large_known_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let mut r = rng();
        let p = Ubig::from_hex("7fffffffffffffffffffffffffffffff").unwrap();
        assert!(is_probable_prime(&p, 16, &mut r));
        // Its neighbor is even, hence composite.
        assert!(!is_probable_prime(&p.add(&Ubig::one()), 16, &mut r));
    }

    #[test]
    fn generated_prime_has_requested_size() {
        let mut r = rng();
        for bits in [64usize, 96, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit forced");
        }
    }

    #[test]
    fn rsa_prime_coprime_to_e() {
        let mut r = rng();
        let e = Ubig::from_u64(65537);
        let p = gen_rsa_prime(96, &e, &mut r);
        assert!(p.sub(&Ubig::one()).gcd(&e).is_one());
    }

    #[test]
    fn deterministic_generation() {
        let mut a = HmacDrbg::new(b"det");
        let mut b = HmacDrbg::new(b"det");
        assert_eq!(gen_prime(80, &mut a), gen_prime(80, &mut b));
    }
}
