//! Arbitrary-precision unsigned integers, from scratch.
//!
//! The workspace's offline crate set has no bignum library, and RSA
//! (needed for the paper's signatures, §3.8, and the RST ring signatures,
//! §3.2) requires one. This module implements the minimal-but-complete
//! set of operations RSA needs: schoolbook multiplication, Knuth
//! Algorithm D division, binary modular exponentiation, extended
//! Euclidean inversion, and uniform random sampling.
//!
//! Representation: little-endian `u64` limbs, always normalized (no
//! trailing zero limbs; zero is the empty limb vector). All arithmetic is
//! variable-time — acceptable for a research simulator, never for
//! production cryptography (see crate-level docs).

use crate::drbg::HmacDrbg;
use crate::montgomery::Montgomery;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl Ubig {
    /// The value 0.
    pub fn zero() -> Ubig {
        Ubig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Ubig {
        Ubig { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Ubig {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Constructs from big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Ubig {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zeros (zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the top limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with
    /// zeros. Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a (case-insensitive) hex string.
    pub fn from_hex(s: &str) -> Option<Ubig> {
        let s = s.trim_start_matches("0x");
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<char> = s.chars().collect();
        let mut i = 0;
        // Odd-length strings have an implicit leading nibble.
        if chars.len() % 2 == 1 {
            bytes.push(chars[0].to_digit(16)? as u8);
            i = 1;
        }
        while i < chars.len() {
            let hi = chars[i].to_digit(16)?;
            let lo = chars[i + 1].to_digit(16)?;
            bytes.push(((hi << 4) | lo) as u8);
            i += 2;
        }
        Some(Ubig::from_bytes_be(&bytes))
    }

    /// Lowercase hex rendering (no leading zeros; zero → "0").
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        while s.len() > 1 && s.starts_with('0') {
            s.remove(0);
        }
        s
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// The little-endian limbs (no trailing zeros).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Constructs from little-endian limbs (trailing zeros permitted).
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Ubig {
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to 1.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Addition.
    pub fn add(&self, rhs: &Ubig) -> Ubig {
        let (longer, shorter) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; returns `None` on underflow.
    pub fn checked_sub(&self, rhs: &Ubig) -> Option<Ubig> {
        if self < rhs {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = Ubig { limbs: out };
        n.normalize();
        Some(n)
    }

    /// Subtraction; panics on underflow.
    pub fn sub(&self, rhs: &Ubig) -> Ubig {
        self.checked_sub(rhs).expect("Ubig::sub underflow (use checked_sub)")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, rhs: &Ubig) -> Ubig {
        if self.is_zero() || rhs.is_zero() {
            return Ubig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Multiplication by a `u64`.
    pub fn mul_u64(&self, rhs: u64) -> Ubig {
        if rhs == 0 || self.is_zero() {
            return Ubig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let t = (a as u128) * (rhs as u128) + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Ubig {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Ubig {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let mut v = src[i] >> bit_shift;
                if i + 1 < src.len() {
                    v |= src[i + 1] << (64 - bit_shift);
                }
                out.push(v);
            }
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder (Knuth TAOCP vol. 2, Algorithm D).
    /// Returns `(quotient, remainder)`. Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Ubig::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut quot = Ubig { limbs: q };
            quot.normalize();
            return (quot, Ubig::from_u64(rem as u64));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top two limbs.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            while qhat >= 1u128 << 64
                || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from un[j..j+n+1].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;
            borrow = t >> 64;

            q[j] = qhat as u64;
            if borrow < 0 {
                // qhat was one too large: add v back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = t as u64;
                    carry = t >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quot = Ubig { limbs: q };
        quot.normalize();
        let mut rem = Ubig { limbs: un[..n].to_vec() };
        rem.normalize();
        (quot, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Ubig) -> Ubig {
        self.divrem(m).1
    }

    /// Modular multiplication `(self * rhs) mod m`.
    ///
    /// Odd moduli go through the division-free [`Montgomery`] path
    /// (two REDC passes instead of a double-width product plus a Knuth
    /// Algorithm D quotient). Even moduli keep the schoolbook
    /// multiply-then-divide fallback: REDC requires `gcd(R, m) = 1`
    /// with `R` a power of two, which an even `m` can never satisfy.
    /// Hot loops that reduce by one modulus repeatedly (RSA, Miller–
    /// Rabin) should build a [`Montgomery`] context once instead of
    /// paying its precomputation on every call here.
    pub fn mul_mod(&self, rhs: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "mul_mod with zero modulus");
        match Montgomery::new(m) {
            Some(ctx) => ctx.mul(self, rhs),
            None => self.mul(rhs).rem(m),
        }
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Odd moduli (the only kind RSA and Miller–Rabin ever reduce by)
    /// use Montgomery REDC with sliding-window exponentiation; even
    /// moduli fall back to [`Ubig::modpow_schoolbook`] since REDC
    /// requires an odd modulus.
    pub fn modpow(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return Ubig::zero();
        }
        match Montgomery::new(m) {
            Some(ctx) => ctx.pow(self, exp),
            None => self.modpow_schoolbook(exp, m),
        }
    }

    /// Modular exponentiation by left-to-right binary square-and-
    /// multiply with a full division per step.
    ///
    /// This is the pre-Montgomery reference path: the even-modulus
    /// fallback of [`Ubig::modpow`], the equivalence oracle for the
    /// Montgomery property tests, and the baseline that experiment E13
    /// and `benches/crypto.rs` measure the fast path against.
    pub fn modpow_schoolbook(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return Ubig::zero();
        }
        let base = self.rem(m);
        if exp.is_zero() {
            return Ubig::one();
        }
        let mut acc = Ubig::one();
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul(&acc).rem(m);
            if exp.bit(i) {
                acc = acc.mul(&base).rem(m);
            }
        }
        acc
    }

    /// Greatest common divisor (binary-free Euclid; division is cheap
    /// enough at RSA sizes).
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse `self^-1 mod m` via the extended Euclidean
    /// algorithm; `None` if `gcd(self, m) != 1`.
    pub fn modinv(&self, m: &Ubig) -> Option<Ubig> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Track Bézout coefficient for `self` with an explicit sign.
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        let mut old_s = (Ubig::one(), false); // (magnitude, negative?)
        let mut s = (Ubig::zero(), false);
        // Signed subtract helper: a - b where a,b are (mag, neg) pairs.
        fn signed_sub(a: &(Ubig, bool), b: &(Ubig, bool)) -> (Ubig, bool) {
            match (a.1, b.1) {
                (false, false) => {
                    if a.0 >= b.0 {
                        (a.0.sub(&b.0), false)
                    } else {
                        (b.0.sub(&a.0), true)
                    }
                }
                (true, true) => {
                    if b.0 >= a.0 {
                        (b.0.sub(&a.0), false)
                    } else {
                        (a.0.sub(&b.0), true)
                    }
                }
                (false, true) => (a.0.add(&b.0), false),
                (true, false) => (a.0.add(&b.0), true),
            }
        }
        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qs = (q.mul(&s.0), s.1);
            let new_s = signed_sub(&old_s, &qs);
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None;
        }
        let mag = old_s.0.rem(m);
        if old_s.1 && !mag.is_zero() {
            Some(m.sub(&mag))
        } else {
            Some(mag)
        }
    }

    /// Uniform random value with exactly `bits` bits (top bit set).
    /// `bits` must be ≥ 1.
    pub fn random_bits(bits: usize, rng: &mut HmacDrbg) -> Ubig {
        assert!(bits >= 1);
        let nbytes = bits.div_ceil(8);
        let mut bytes = rng.bytes(nbytes);
        // Clear excess high bits, then force the top bit.
        let excess = nbytes * 8 - bits;
        bytes[0] &= 0xffu8 >> excess;
        bytes[0] |= 0x80u8 >> excess;
        Ubig::from_bytes_be(&bytes)
    }

    /// Uniform random value in `[0, bound)` by rejection sampling.
    pub fn random_below(bound: &Ubig, rng: &mut HmacDrbg) -> Ubig {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        let nbytes = bits.div_ceil(8);
        let excess = nbytes * 8 - bits;
        loop {
            let mut bytes = rng.bytes(nbytes);
            bytes[0] &= 0xffu8 >> excess;
            let candidate = Ubig::from_bytes_be(&bytes);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl std::fmt::Debug for Ubig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ubig(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for Ubig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        Ubig::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(hex: &str) -> Ubig {
        Ubig::from_hex(hex).unwrap()
    }

    #[test]
    fn construction_and_rendering() {
        assert_eq!(Ubig::zero().to_hex(), "0");
        assert_eq!(Ubig::from_u64(0xdeadbeef).to_hex(), "deadbeef");
        assert_eq!(big("deadbeef").low_u64(), 0xdeadbeef);
        assert_eq!(big("0xff").low_u64(), 255);
        // Odd-length hex.
        assert_eq!(big("f00").low_u64(), 0xf00);
    }

    #[test]
    fn byte_round_trip() {
        let n = big("0123456789abcdef0123456789abcdef01");
        assert_eq!(Ubig::from_bytes_be(&n.to_bytes_be()), n);
        assert_eq!(Ubig::from_bytes_be(&[]), Ubig::zero());
        assert_eq!(Ubig::from_bytes_be(&[0, 0, 5]).low_u64(), 5);
    }

    #[test]
    fn padded_bytes() {
        let n = Ubig::from_u64(0x1234);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small() {
        Ubig::from_u64(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn comparison() {
        assert!(big("100") > big("ff"));
        assert!(big("ff") < big("100"));
        assert_eq!(big("abc"), big("0abc"));
        assert!(Ubig::zero() < Ubig::one());
    }

    #[test]
    fn addition_with_carry_chain() {
        let a = big("ffffffffffffffffffffffffffffffff");
        assert_eq!(a.add(&Ubig::one()).to_hex(), "100000000000000000000000000000000");
        assert_eq!(Ubig::zero().add(&Ubig::zero()), Ubig::zero());
    }

    #[test]
    fn subtraction() {
        let a = big("100000000000000000000000000000000");
        assert_eq!(a.sub(&Ubig::one()).to_hex(), "ffffffffffffffffffffffffffffffff");
        assert_eq!(big("5").checked_sub(&big("7")), None);
        assert_eq!(big("7").sub(&big("7")), Ubig::zero());
    }

    #[test]
    fn multiplication_known_values() {
        assert_eq!(
            big("ffffffffffffffff").mul(&big("ffffffffffffffff")).to_hex(),
            "fffffffffffffffe0000000000000001"
        );
        assert_eq!(big("abc").mul(&Ubig::zero()), Ubig::zero());
        assert_eq!(big("abc").mul(&Ubig::one()), big("abc"));
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = big("123456789abcdef0123456789abcdef");
        assert_eq!(a.mul_u64(0xcafe), a.mul(&Ubig::from_u64(0xcafe)));
        assert_eq!(a.mul_u64(0), Ubig::zero());
    }

    #[test]
    fn shifts() {
        let a = big("1");
        assert_eq!(a.shl(64).to_hex(), "10000000000000000");
        assert_eq!(a.shl(65).shr(65), a);
        assert_eq!(big("ff00").shr(8).to_hex(), "ff");
        assert_eq!(big("ff").shr(100), Ubig::zero());
        assert_eq!(big("ff").shl(0), big("ff"));
    }

    #[test]
    fn division_single_limb() {
        let (q, r) = big("deadbeefcafebabe").divrem(&big("10"));
        assert_eq!(q.to_hex(), "deadbeefcafebab");
        assert_eq!(r.to_hex(), "e");
    }

    #[test]
    fn division_multi_limb() {
        // (a * b + r) / b == a with remainder r, constructed explicitly.
        let a = big("123456789abcdef00fedcba987654321");
        let b = big("fedcba9876543210123456789");
        let r = big("abc");
        let n = a.mul(&b).add(&r);
        let (q, rem) = n.divrem(&b);
        assert_eq!(q, a);
        assert_eq!(rem, r);
    }

    #[test]
    fn division_needs_addback() {
        // A case class that historically exercises the rare add-back branch
        // of Algorithm D: dividend just below a multiple of the divisor.
        let v = big("80000000000000000000000000000001");
        let u = v.mul(&big("ffffffffffffffff")).sub(&Ubig::one());
        let (q, r) = u.divrem(&v);
        assert_eq!(q.to_hex(), "fffffffffffffffe");
        assert_eq!(r, v.sub(&Ubig::one()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big("5").divrem(&Ubig::zero());
    }

    #[test]
    fn bit_access() {
        let mut n = Ubig::zero();
        n.set_bit(0);
        n.set_bit(64);
        n.set_bit(129);
        assert!(n.bit(0) && n.bit(64) && n.bit(129));
        assert!(!n.bit(1) && !n.bit(128) && !n.bit(1000));
        assert_eq!(n.bit_len(), 130);
        assert_eq!(Ubig::zero().bit_len(), 0);
        assert_eq!(Ubig::one().bit_len(), 1);
    }

    #[test]
    fn modpow_known_values() {
        // 4^13 mod 497 = 445 (classic textbook example).
        let b = Ubig::from_u64(4);
        let e = Ubig::from_u64(13);
        let m = Ubig::from_u64(497);
        assert_eq!(b.modpow(&e, &m).low_u64(), 445);
        // Fermat: a^(p-1) = 1 mod p for prime p.
        let p = Ubig::from_u64(1_000_000_007);
        let a = Ubig::from_u64(123456789);
        assert_eq!(a.modpow(&p.sub(&Ubig::one()), &p), Ubig::one());
        // x^0 = 1, x^1 = x mod m.
        assert_eq!(b.modpow(&Ubig::zero(), &m), Ubig::one());
        assert_eq!(b.modpow(&Ubig::one(), &m), b);
        // Modulus 1 → 0.
        assert_eq!(b.modpow(&e, &Ubig::one()), Ubig::zero());
    }

    #[test]
    fn gcd_known_values() {
        assert_eq!(Ubig::from_u64(48).gcd(&Ubig::from_u64(18)).low_u64(), 6);
        assert_eq!(Ubig::from_u64(17).gcd(&Ubig::from_u64(5)).low_u64(), 1);
        assert_eq!(Ubig::zero().gcd(&Ubig::from_u64(7)).low_u64(), 7);
    }

    #[test]
    fn modinv_known_values() {
        // 3^-1 mod 11 = 4.
        assert_eq!(Ubig::from_u64(3).modinv(&Ubig::from_u64(11)).unwrap().low_u64(), 4);
        // Non-invertible.
        assert_eq!(Ubig::from_u64(6).modinv(&Ubig::from_u64(9)), None);
        // Inverse of large value.
        let m = big("fffffffffffffffffffffffffffffffeffffffffffffffff"); // not nec. prime; just coprime check
        let a = big("deadbeef");
        if let Some(inv) = a.modinv(&m) {
            assert_eq!(a.mul_mod(&inv, &m), Ubig::one());
        }
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = HmacDrbg::new(b"bits");
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 512, 1024] {
            let n = Ubig::random_bits(bits, &mut rng);
            assert_eq!(n.bit_len(), bits, "requested {bits} bits");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = HmacDrbg::new(b"below");
        let bound = big("10000000000000000000001");
        for _ in 0..50 {
            assert!(Ubig::random_below(&bound, &mut rng) < bound);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_round_trip(a in proptest::collection::vec(any::<u8>(), 0..40),
                                   b in proptest::collection::vec(any::<u8>(), 0..40)) {
            let x = Ubig::from_bytes_be(&a);
            let y = Ubig::from_bytes_be(&b);
            prop_assert_eq!(x.add(&y).sub(&y), x);
        }

        #[test]
        fn prop_divrem_invariant(a in proptest::collection::vec(any::<u8>(), 0..48),
                                 b in proptest::collection::vec(any::<u8>(), 1..32)) {
            let x = Ubig::from_bytes_be(&a);
            let mut y = Ubig::from_bytes_be(&b);
            if y.is_zero() { y = Ubig::one(); }
            let (q, r) = x.divrem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }

        #[test]
        fn prop_mul_commutative(a in proptest::collection::vec(any::<u8>(), 0..32),
                                b in proptest::collection::vec(any::<u8>(), 0..32)) {
            let x = Ubig::from_bytes_be(&a);
            let y = Ubig::from_bytes_be(&b);
            prop_assert_eq!(x.mul(&y), y.mul(&x));
        }

        #[test]
        fn prop_shift_round_trip(a in proptest::collection::vec(any::<u8>(), 0..32),
                                 s in 0usize..200) {
            let x = Ubig::from_bytes_be(&a);
            prop_assert_eq!(x.shl(s).shr(s), x);
        }

        #[test]
        fn prop_hex_round_trip(a in proptest::collection::vec(any::<u8>(), 1..32)) {
            let x = Ubig::from_bytes_be(&a);
            prop_assert_eq!(Ubig::from_hex(&x.to_hex()).unwrap(), x);
        }

        #[test]
        fn prop_modpow_matches_naive(base in 0u64..1000, exp in 0u64..64, m in 2u64..10_000) {
            let naive = {
                let mut acc: u128 = 1;
                for _ in 0..exp { acc = acc * base as u128 % m as u128; }
                acc as u64
            };
            let got = Ubig::from_u64(base)
                .modpow(&Ubig::from_u64(exp), &Ubig::from_u64(m))
                .low_u64();
            prop_assert_eq!(got, naive);
        }
    }
}
