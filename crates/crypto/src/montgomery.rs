//! Montgomery modular arithmetic: the engine under every RSA sign,
//! verify and Miller–Rabin round in the workspace.
//!
//! The schoolbook [`Ubig::modpow_schoolbook`](crate::bignum::Ubig::modpow_schoolbook)
//! costs a double-width multiplication *plus a Knuth Algorithm D
//! division* per exponent bit. Montgomery's method pays two extra
//! multiplications *once* (at context build), after which a modular
//! multiplication is one multiply-reduce pass (REDC), division-free.
//!
//! # One engine, entered once per operation
//!
//! An exponentiation is a few hundred *dependent* products, so what a
//! product pays beyond its arithmetic is what the exponentiation costs.
//! The engine is generic over its limb storage (`Limbs`) and each
//! public operation picks the storage **once**: `[u64; K]` for the
//! widths RSA uses (K = 1, 2, 4, 8, 16, 32 limbs), `Vec<u64>` for any
//! other. Inside `pow_k` the base, the accumulator, the odd-power table
//! and each kernel's scratch are values of that type — stack arrays of
//! known length, so nothing is allocated between entry and the final
//! `Ubig` and no product re-dispatches on the width. The `Vec`
//! instantiation runs the same routine and kernel bodies so that other
//! widths are correct, not fast. (DESIGN.md, "Montgomery engine".)
//!
//! * **fused FIOS multiply** (`mul_k`) — the `a·b` accumulation and
//!   the `m·n` fold run as one loop with two independent carry chains;
//! * **dedicated SOS squaring** (`sqr_k`, even widths ≥ 4 limbs) —
//!   upper-triangle products doubled, ≈ 1.5k² word multiplies instead
//!   of 2k², reduced two rows per pass;
//! * **sliding-window exponentiation** — odd powers only, windows that
//!   start and end on a set bit, zero runs paid as bare squarings. A
//!   ≤ 32-bit exponent (`e = 65537`: 16 squarings + 1 multiply) builds
//!   no table; a 256-bit CRT exponent takes 4-bit windows over 8 odd
//!   powers (256 squarings + ≈ 59 multiplies).
//!
//! # REDC invariants
//!
//! A [`Montgomery`] context for an odd modulus `n` of `k` 64-bit limbs
//! fixes `R = 2^(64k)` (`gcd(R, n) = 1` because `n` is odd — even
//! moduli fall back to schoolbook arithmetic) and keeps `n0_inv =
//! -n^(-1) mod 2^64`, `r1 = R mod n` and `r2 = R² mod n`: `to_mont(x)`
//! is `redc(x · r2)`, `from_mont(x̄)` is `redc(x̄ · 1)`.
//!
//! A kernel takes one operand `< R` and one `< n` and returns a fully
//! reduced result in `[0, n)`: the pre-subtraction value `V = top·R +
//! t` is `< (R·n + R·n)/R = 2n`, so *one* subtraction of `n`, applied
//! iff `V ≥ n`, finishes the product (`reduce_once`, by mask, not by
//! branch). All arithmetic is still variable-time, like the rest of
//! this crate: fine for a simulator, never for production cryptography.

use crate::bignum::Ubig;

/// A precomputed Montgomery context for one odd modulus.
///
/// Build it once per modulus ([`Montgomery::new`]), then every
/// [`mul`](Montgomery::mul), [`square`](Montgomery::square), and
/// [`pow`](Montgomery::pow) runs division-free. [`crate::rsa`] caches one
/// per key (for `n`, `p`, `q`): sign/verify pay the precomputation once.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The modulus.
    n: Ubig,
    /// Limb count of the modulus; `R = 2^(64k)`.
    k: usize,
    /// `-n^(-1) mod 2^64`.
    n0_inv: u64,
    /// `R mod n`: the Montgomery form of 1.
    r1: Ubig,
    /// `R² mod n`: the to-Montgomery conversion constant.
    r2: Ubig,
}

/// Calls `$self.$f::<L>(…)` with `L` the limb storage for this
/// context's width: the one dispatch an operation pays.
macro_rules! by_width {
    ($self:ident.$f:ident($($arg:expr),*)) => {
        match $self.k {
            1 => $self.$f::<[u64; 1]>($($arg),*),
            2 => $self.$f::<[u64; 2]>($($arg),*),
            4 => $self.$f::<[u64; 4]>($($arg),*),
            8 => $self.$f::<[u64; 8]>($($arg),*),
            16 => $self.$f::<[u64; 16]>($($arg),*),
            32 => $self.$f::<[u64; 32]>($($arg),*),
            _ => $self.$f::<Vec<u64>>($($arg),*),
        }
    };
}

impl Montgomery {
    /// Builds a context for `n`. Returns `None` when `n` is even or
    /// `n ≤ 1`: REDC requires `gcd(R, n) = 1`, which fails for even
    /// `n`, and a modulus of 0 or 1 has no useful residue ring.
    pub fn new(n: &Ubig) -> Option<Montgomery> {
        if n.is_even() || n.is_one() {
            return None;
        }
        let k = n.limbs().len();
        // Newton–Hensel: for odd n0, x = n0 is an inverse mod 2^3;
        // each iteration doubles the valid bit count, so five reach 96
        // ≥ 64 bits. Negate to get the REDC folding constant.
        let n0 = n.limbs()[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let r1 = Ubig::one().shl(64 * k).rem(n);
        let r2 = r1.mul(&r1).rem(n);
        Some(Montgomery { n: n.clone(), k, n0_inv: inv.wrapping_neg(), r1, r2 })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// `(a · b) mod n`, division-free: `redc(redc(a·b), r2)` — the first
    /// pass yields `a·b·R^(-1)`, the second multiplies the `R` back in.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        by_width!(self.mul_in(a, Some(b), true))
    }

    /// `a² mod n`, division-free, on the dedicated squaring kernel.
    pub fn square(&self, a: &Ubig) -> Ubig {
        by_width!(self.mul_in(a, None, true))
    }

    /// `a·b·R^(-1) mod n`, one REDC product: the plain product when
    /// exactly one operand is in Montgomery form.
    pub(crate) fn mul_redc(&self, a: &Ubig, b: &Ubig) -> Ubig {
        by_width!(self.mul_in(a, Some(b), false))
    }

    /// `x·R mod n`, the Montgomery form of `x`.
    pub(crate) fn to_mont(&self, x: &Ubig) -> Ubig {
        self.mul_redc(x, &self.r2)
    }

    /// `base^exp mod n` by sliding-window exponentiation over
    /// Montgomery products, the window width chosen from the exponent
    /// length (`e = 65537` is plain square-and-multiply, no table).
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        if exp.is_zero() {
            return Ubig::one(); // n > 1, so 1 mod n = 1
        }
        by_width!(self.pow_k(base, exp))
    }

    /// At most `k` limbs, zero-extended to exactly `k`.
    fn load<L: Limbs>(&self, x: &[u64]) -> L {
        let mut out = L::zero(self.k);
        out.as_mut()[..x.len()].copy_from_slice(x);
        out
    }

    /// `x mod n` as `k` limbs. Below `n` (signatures, witnesses, CRT
    /// residues) that is `x` itself; otherwise (the message under a CRT
    /// half is `2k` limbs) it is Horner over `k`-limb chunks, `acc·R +
    /// chunk ≡ redc(acc·r2) + redc(chunk·r1)` — the chunk is the
    /// kernel's `< R` operand — with no Knuth division either way.
    fn reduced<L: Limbs>(&self, x: &Ubig, n: &L) -> L {
        if x < &self.n {
            return self.load(x.limbs());
        }
        let (r1, r2): (L, L) = (self.load(self.r1.limbs()), self.load(self.r2.limbs()));
        let mut acc = L::zero(self.k);
        for chunk in x.limbs().chunks(self.k).rev() {
            let hi = mul_k(&acc, &r2, n, self.n0_inv);
            let lo = mul_k(&self.load(chunk), &r1, n, self.n0_inv);
            let mut carry = false;
            for ((s, &a), &b) in acc.as_mut().iter_mut().zip(hi.as_ref()).zip(lo.as_ref()) {
                let (s1, c1) = a.overflowing_add(b);
                let (s2, c2) = s1.overflowing_add(carry as u64);
                (*s, carry) = (s2, c1 | c2);
            }
            acc = reduce_once(acc.as_ref(), carry as u64, n.as_ref());
        }
        acc
    }

    /// `a·b` (or `a²` on the squaring kernel when `b` is `None`) as one
    /// REDC product, times `R` again through `r2` when `plain`.
    fn mul_in<L: Limbs>(&self, a: &Ubig, b: Option<&Ubig>, plain: bool) -> Ubig {
        let (n, inv) = (self.load::<L>(self.n.limbs()), self.n0_inv);
        let a = self.reduced(a, &n);
        let mut t = match b {
            Some(b) => mul_k(&a, &self.reduced(b, &n), &n, inv),
            None => sqr_k(&a, &n, inv),
        };
        if plain {
            t = mul_k(&t, &self.load(self.r2.limbs()), &n, inv);
        }
        Ubig::from_limbs(t.as_ref().to_vec())
    }

    /// The exponentiation routine at every width (`exp ≠ 0`).
    fn pow_k<L: Limbs>(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let (n, inv) = (self.load::<L>(self.n.limbs()), self.n0_inv);
        let (e, bits) = (exp.limbs(), exp.bit_len());
        let w = window_width(bits);
        let base = mul_k(&self.reduced(base, &n), &self.load(self.r2.limbs()), &n, inv);

        // odd[d] = base^(2d+1) in Montgomery form, 2^(w-1) entries; a
        // one-bit window reads `base` itself and builds nothing.
        let mut odd: [L; 1 << (MAX_WINDOW - 1)];
        let table: &[L] = if w == 1 {
            std::slice::from_ref(&base)
        } else {
            let base2 = sqr_k(&base, &n, inv);
            odd = std::array::from_fn(|_| base.clone());
            for d in 1..1 << (w - 1) {
                odd[d] = mul_k(&odd[d - 1], &base2, &n, inv);
            }
            &odd
        };

        // The window under set bit `i - 1`: up to `w` bits, cut back
        // to end on a set bit. Returns its (odd) value and its length.
        let window = |i: usize| -> (usize, usize) {
            let len = w.min(i);
            let (limb, off) = ((i - len) / 64, (i - len) % 64);
            let mut d = e[limb] >> off;
            if off + len > 64 {
                d |= e[limb + 1] << (64 - off);
            }
            let d = d as usize & ((1 << len) - 1);
            let zeros = d.trailing_zeros() as usize;
            (d >> zeros, len - zeros)
        };

        // Bits above `i` are consumed. The set top bit's window seeds
        // the accumulator; then a clear bit is one squaring, a set bit
        // opens a window: `len` squarings and one table multiply.
        let (d, len) = window(bits);
        let mut acc = table[d >> 1].clone();
        let mut i = bits - len;
        while i > 0 {
            let set = exp.bit(i - 1);
            let (d, len) = if set { window(i) } else { (0, 1) };
            for _ in 0..len {
                acc = sqr_k(&acc, &n, inv);
            }
            if set {
                acc = mul_k(&acc, &table[d >> 1], &n, inv);
            }
            i -= len;
        }

        // from_mont: one REDC against the plain value 1.
        acc = mul_k(&acc, &self.load(&[1]), &n, inv);
        Ubig::from_limbs(acc.as_ref().to_vec())
    }
}

/// Widest window [`window_width`] returns; sizes the odd-power table.
const MAX_WINDOW: usize = 5;

/// Sliding-window width for an exponent of `bits` bits: balances the
/// `2^(w-1)` table products against the `≈ bits/(w+1)` window
/// multiplies. No table at all up to 32 bits.
fn window_width(bits: usize) -> usize {
    match bits {
        0..=32 => 1,
        33..=80 => 3,
        81..=320 => 4,
        _ => MAX_WINDOW,
    }
}

/// Limb storage the engine is generic over: `[u64; K]` on the stack at
/// the monomorphized widths, `Vec<u64>` at every other. `zero` is `k`
/// limbs and `wide` the squaring kernel's `2k`; `k` is the context's
/// limb count, which only the `Vec` storage needs to be told.
trait Limbs: Clone + AsRef<[u64]> + AsMut<[u64]> {
    type Wide;
    fn zero(k: usize) -> Self;
    fn wide(k: usize) -> Self::Wide;
    fn wide_limbs(wide: &mut Self::Wide) -> &mut [u64];
}

impl<const K: usize> Limbs for [u64; K] {
    type Wide = [[u64; K]; 2];
    fn zero(_: usize) -> Self {
        [0; K]
    }
    fn wide(_: usize) -> Self::Wide {
        [[0; K]; 2]
    }
    fn wide_limbs(wide: &mut Self::Wide) -> &mut [u64] {
        wide.as_flattened_mut()
    }
}

impl Limbs for Vec<u64> {
    type Wide = Vec<u64>;
    fn zero(k: usize) -> Self {
        vec![0; k]
    }
    fn wide(k: usize) -> Self::Wide {
        vec![0; 2 * k]
    }
    fn wide_limbs(wide: &mut Self::Wide) -> &mut [u64] {
        wide
    }
}

/// Montgomery product `a·b·R^(-1) mod n` (`a < R`, `b < n`) in one
/// fused FIOS pass: the `a·b` accumulation and the `m·n` fold share the
/// loop but carry independently, keeping both multiply chains in flight.
/// `#[inline(always)]` so each `pow_k` instantiation gets the kernel
/// with `k` a constant and its operands in the caller's frame.
#[inline(always)]
fn mul_k<L: Limbs>(a: &L, b: &L, n: &L, n0_inv: u64) -> L {
    let n = n.as_ref();
    let k = n.len();
    let (a, b) = (&a.as_ref()[..k], &b.as_ref()[..k]);
    let mut acc = L::zero(k);
    let t = &mut acc.as_mut()[..k];
    let mut top = 0u64;
    for &ai in a {
        let s = t[0] as u128 + ai as u128 * b[0] as u128;
        let mut c_ab = (s >> 64) as u64;
        let m = (s as u64).wrapping_mul(n0_inv);
        let s2 = (s as u64) as u128 + m as u128 * n[0] as u128;
        let mut c_mn = (s2 >> 64) as u64;
        for j in 1..k {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + c_ab as u128;
            c_ab = (s >> 64) as u64;
            let s2 = (s as u64) as u128 + m as u128 * n[j] as u128 + c_mn as u128;
            t[j - 1] = s2 as u64;
            c_mn = (s2 >> 64) as u64;
        }
        let s = top as u128 + c_ab as u128 + c_mn as u128;
        t[k - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    reduce_once(t, top, n)
}

/// Montgomery square `a²·R^(-1) mod n` (`a < n`), SOS-style:
/// upper-triangle products, doubled with the diagonal added, then the
/// `m·n` reduction over the `2k`-limb square, two rows per pass. Below
/// 4 limbs the triangle saves nothing, and an odd width has no row
/// pairs: there the square is a [`mul_k`]. Inlined for the same reason.
#[inline(always)]
fn sqr_k<L: Limbs>(a: &L, n: &L, n0_inv: u64) -> L {
    let k = n.as_ref().len();
    if k < 4 || k % 2 == 1 {
        return mul_k(a, a, n, n0_inv);
    }
    let (a, n) = (&a.as_ref()[..k], n.as_ref());
    let mut wide = L::wide(k);
    let u = &mut L::wide_limbs(&mut wide)[..2 * k];
    // Off-diagonal half products.
    for i in 0..k {
        let ai = a[i];
        let mut carry = 0u64;
        for j in i + 1..k {
            let s = u[i + j] as u128 + ai as u128 * a[j] as u128 + carry as u128;
            u[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        u[i + k] = carry;
    }
    // Double them and add the diagonal a[i]², two limbs at a time.
    let (mut top, mut carry) = (0u64, 0u64);
    for i in 0..k {
        let (lo, hi) = (u[2 * i], u[2 * i + 1]);
        let s = ((lo << 1) | top) as u128 + a[i] as u128 * a[i] as u128 + carry as u128;
        u[2 * i] = s as u64;
        let s2 = ((hi << 1) | (lo >> 63)) as u128 + (s >> 64);
        u[2 * i + 1] = s2 as u64;
        (top, carry) = (hi >> 63, (s2 >> 64) as u64);
    }
    // Reduction: fold rows m[i]·n into u, leaving the result in
    // u[k..2k], top carry in `carry2`. Row i's m0 is known at once; row
    // i+1's m1 needs u[i+1] after m0's j=1 term (the preamble); the
    // joint loop runs both carry chains over one load/store per limb.
    let mut carry2 = 0u64;
    for i in (0..k).step_by(2) {
        let m0 = u[i].wrapping_mul(n0_inv);
        let s = u[i] as u128 + m0 as u128 * n[0] as u128;
        let mut c0 = (s >> 64) as u64;
        let s = u[i + 1] as u128 + m0 as u128 * n[1] as u128 + c0 as u128;
        let u_i1 = s as u64;
        c0 = (s >> 64) as u64;
        let m1 = u_i1.wrapping_mul(n0_inv);
        let s = u_i1 as u128 + m1 as u128 * n[0] as u128;
        let mut c1 = (s >> 64) as u64;
        for j in 2..k {
            let s = u[i + j] as u128 + m0 as u128 * n[j] as u128 + c0 as u128;
            c0 = (s >> 64) as u64;
            let s2 = (s as u64) as u128 + m1 as u128 * n[j - 1] as u128 + c1 as u128;
            u[i + j] = s2 as u64;
            c1 = (s2 >> 64) as u64;
        }
        let s = u[i + k] as u128
            + c0 as u128
            + m1 as u128 * n[k - 1] as u128
            + c1 as u128
            + carry2 as u128;
        u[i + k] = s as u64;
        let s2 = u[i + k + 1] as u128 + (s >> 64);
        u[i + k + 1] = s2 as u64;
        carry2 = (s2 >> 64) as u64;
    }
    reduce_once(&u[k..], carry2, n)
}

/// `V - n` if `V = top·2^(64k) + t` is `≥ n`, else `t`; callers
/// guarantee `V < 2n`. `V ≥ n` iff `top` is set or `t - n` does not
/// borrow, and when `top` is set the `k`-limb difference wraps to
/// exactly `V - n < n`. The difference is always computed and a mask
/// picks it or `t`. Which way a product lands is a coin flip no
/// predictor learns on fresh messages, and a visible 0/-1 mask is a
/// `select` the x86 backend turns back into that branch — hence the
/// `black_box`: one store and reload per product.
#[inline(always)]
fn reduce_once<L: Limbs>(t: &[u64], top: u64, n: &[u64]) -> L {
    let mut out = L::zero(n.len());
    let d = out.as_mut();
    let mut borrow = false;
    for ((dj, &tj), &nj) in d.iter_mut().zip(t).zip(n) {
        let (d1, b1) = tj.overflowing_sub(nj);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        (*dj, borrow) = (d2, b1 | b2);
    }
    let keep = std::hint::black_box((((top == 0) & borrow) as u64).wrapping_neg());
    for (dj, &tj) in d.iter_mut().zip(t) {
        *dj = (*dj & !keep) | (tj & keep);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;

    fn big(hex: &str) -> Ubig {
        Ubig::from_hex(hex).unwrap()
    }

    /// An odd modulus ≥ 3 built from arbitrary bytes.
    fn odd_modulus(bytes: &[u8]) -> Ubig {
        let mut m = Ubig::from_bytes_be(bytes);
        if m.is_even() {
            m = m.add(&Ubig::one());
        }
        if m.is_one() || m.is_zero() {
            m = Ubig::from_u64(3);
        }
        m
    }

    #[test]
    fn rejects_even_and_degenerate_moduli() {
        assert!(Montgomery::new(&Ubig::from_u64(4)).is_none());
        assert!(Montgomery::new(&Ubig::zero()).is_none());
        assert!(Montgomery::new(&Ubig::one()).is_none());
        assert!(Montgomery::new(&Ubig::from_u64(3)).is_some());
    }

    #[test]
    fn known_values() {
        let m = Ubig::from_u64(497);
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(ctx.pow(&Ubig::from_u64(4), &Ubig::from_u64(13)).low_u64(), 445);
        assert_eq!(ctx.mul(&Ubig::from_u64(20), &Ubig::from_u64(30)).low_u64(), 600 % 497);
        assert_eq!(ctx.square(&Ubig::from_u64(100)).low_u64(), 10_000 % 497);
    }

    #[test]
    fn operands_larger_than_modulus_are_reduced() {
        let m = big("10000000000000001"); // odd, 65 bits
        let ctx = Montgomery::new(&m).unwrap();
        let a = big("123456789abcdef0123456789abcdef0123");
        let b = big("fedcba9876543210fedcba9876543210fed");
        assert_eq!(ctx.mul(&a, &b), a.mul(&b).rem(&m));
        assert_eq!(ctx.square(&a), a.mul(&a).rem(&m));
    }

    #[test]
    fn pow_edge_exponents() {
        let m = big("f000000000000000000000000000000d"); // odd 128-bit
        let ctx = Montgomery::new(&m).unwrap();
        let a = big("deadbeefcafebabe");
        assert_eq!(ctx.pow(&a, &Ubig::zero()), Ubig::one());
        assert_eq!(ctx.pow(&a, &Ubig::one()), a.rem(&m));
        assert_eq!(ctx.pow(&Ubig::zero(), &big("ff")), Ubig::zero());
        assert_eq!(ctx.pow(&Ubig::one(), &big("ffffffffffffffffffffffff")), Ubig::one());
        // Fermat on a word-sized prime (the one-limb kernel).
        let p = Ubig::from_u64(1_000_000_007);
        let ctx_p = Montgomery::new(&p).unwrap();
        let base = Ubig::from_u64(123_456_789);
        assert_eq!(ctx_p.pow(&base, &p.sub(&Ubig::one())), Ubig::one());
    }

    #[test]
    fn fermat_at_rsa_scale() {
        // A 256-bit probable prime: a^(p-1) ≡ 1 must hold through the
        // full multi-limb kernel path.
        let mut rng = HmacDrbg::new(b"montgomery fermat");
        let p = crate::prime::gen_prime(256, &mut rng);
        let ctx = Montgomery::new(&p).unwrap();
        let a = Ubig::random_below(&p, &mut rng);
        assert_eq!(ctx.pow(&a, &p.sub(&Ubig::one())), Ubig::one());
    }

    /// Every kernel width — each monomorphized size (1, 2, 4, 8, 16,
    /// 32 limbs) and dynamic widths around them — agrees with the
    /// schoolbook path on mul, square, and pow.
    #[test]
    fn kernel_dispatch_widths_match_schoolbook() {
        let mut rng = HmacDrbg::new(b"kernel widths");
        for limbs in [1usize, 2, 3, 4, 5, 8, 12, 16, 24, 32, 33] {
            let mut m = Ubig::random_bits(limbs * 64, &mut rng);
            if m.is_even() {
                m = m.add(&Ubig::one());
            }
            let ctx = Montgomery::new(&m).unwrap();
            let a = Ubig::random_below(&m, &mut rng);
            let b = Ubig::random_below(&m, &mut rng);
            let e = Ubig::from_u64(rng.u64() | 1);
            assert_eq!(ctx.mul(&a, &b), a.mul(&b).rem(&m), "mul at {limbs} limbs");
            assert_eq!(ctx.square(&a), a.mul(&a).rem(&m), "square at {limbs} limbs");
            assert_eq!(ctx.pow(&a, &e), a.modpow_schoolbook(&e, &m), "pow at {limbs} limbs");
        }
    }

    /// The adaptive window must produce identical results at every
    /// width boundary (1/2/3/4/5-bit windows).
    #[test]
    fn window_widths_agree() {
        let mut rng = HmacDrbg::new(b"window widths");
        let mut m = Ubig::random_bits(192, &mut rng);
        if m.is_even() {
            m = m.add(&Ubig::one());
        }
        let ctx = Montgomery::new(&m).unwrap();
        let a = Ubig::random_below(&m, &mut rng);
        for bits in [1usize, 17, 32, 33, 96, 97, 288, 289, 768, 769, 1024] {
            let e = Ubig::random_bits(bits, &mut rng);
            assert_eq!(ctx.pow(&a, &e), a.modpow_schoolbook(&e, &m), "exponent of {bits} bits");
        }
    }

    /// Every monomorphized width and the dynamic widths around them.
    const WIDTHS: [usize; 11] = [1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 33];

    /// A random odd modulus of exactly `limbs` limbs.
    fn modulus_of(limbs: usize, rng: &mut HmacDrbg) -> Ubig {
        let mut m = Ubig::random_bits(limbs * 64, rng);
        m.set_bit(0);
        m
    }

    /// Exponents that stress the window walk: 0, 1, and for lengths on
    /// both sides of every boundary (one window, a limb, 32/33, 80/81,
    /// 320/321 bits) the all-ones `2^j - 1`, the lone bit `2^j`, the
    /// two-bits-and-a-zero-run `2^j + 1`, a dense random and a sparse
    /// one (long zero runs between windows).
    fn stress_exponents(rng: &mut HmacDrbg) -> Vec<Ubig> {
        let one = Ubig::one();
        let mut out = vec![Ubig::zero(), one.clone()];
        for j in [1usize, 2, 3, 4, 5, 6, 31, 32, 33, 63, 64, 65, 80, 81, 129, 320, 321] {
            let pow2 = one.shl(j);
            let dense = Ubig::random_bits(j, rng);
            let mut sparse = one.shl(j - 1);
            for _ in 0..j / 16 {
                sparse.set_bit(rng.below(j as u64) as usize);
            }
            out.extend([pow2.sub(&one), pow2.add(&one), pow2, dense, sparse]);
        }
        out
    }

    /// The engine at every width against the schoolbook oracle: every
    /// stress exponent on a random base, and every edge base — 0, 1,
    /// n - 1, n, n + 1, and wider than n by a limb, by k limbs (the CRT
    /// message), and by more than R² — on a table-free, a windowed and
    /// a trivial exponent, plus `mul`/`square` on the same bases.
    #[test]
    fn engine_matches_schoolbook_at_every_width() {
        let mut rng = HmacDrbg::new(b"engine widths");
        let exps = stress_exponents(&mut rng);
        for limbs in WIDTHS {
            let m = modulus_of(limbs, &mut rng);
            let ctx = Montgomery::new(&m).unwrap();
            let a = Ubig::random_below(&m, &mut rng);
            for e in &exps {
                assert_eq!(ctx.pow(&a, e), a.modpow_schoolbook(e, &m), "{limbs} limbs, e = {e}");
            }
            let one = Ubig::one();
            let bases = [
                Ubig::zero(),
                one.clone(),
                m.sub(&one),
                m.clone(),
                m.add(&one),
                Ubig::random_bits(64 * limbs + 1, &mut rng),
                Ubig::random_bits(128 * limbs, &mut rng),
                Ubig::random_bits(128 * limbs + 1, &mut rng),
                Ubig::random_bits(200 * limbs, &mut rng),
            ];
            let short = [one.clone(), Ubig::from_u64(65537), Ubig::random_bits(90, &mut rng)];
            for b in &bases {
                for e in &short {
                    assert_eq!(ctx.pow(b, e), b.modpow_schoolbook(e, &m), "{limbs} limbs, {b}^{e}");
                }
                assert_eq!(ctx.mul(b, &a), b.mul(&a).rem(&m), "mul at {limbs} limbs, b = {b}");
                assert_eq!(ctx.mul(&a, b), a.mul(b).rem(&m), "mul at {limbs} limbs, b = {b}");
                assert_eq!(ctx.square(b), b.mul(b).rem(&m), "square at {limbs} limbs, b = {b}");
            }
        }
    }

    /// Which way a product's final subtraction went.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Landed {
        BelowN,
        BetweenNAndR,
        CarrySet,
    }

    /// Drives `mul_k` and `sqr_k` — on stack arrays and on the `Vec`
    /// storage — into all three final-subtraction cases and checks each
    /// product against big-integer arithmetic. The pre-subtraction value
    /// `V = (a·b + m·n) / R`, `m = a·b·(-n^(-1)) mod R`, is recomputed
    /// here to know the case: `n` just under `R` makes the carry case
    /// common, `n` just over `R/2` the `[n, R)` case.
    #[test]
    fn kernels_cover_all_three_final_subtraction_cases() {
        fn check<L: Limbs>(n: &Ubig, rng: &mut HmacDrbg, seen: &mut Vec<Landed>) {
            let ctx = Montgomery::new(n).unwrap();
            let k = ctx.k;
            let r = Ubig::one().shl(64 * k);
            let n_neg_inv = r.sub(&n.modinv(&r).unwrap());
            let nl: L = ctx.load(n.limbs());
            for round in 0..64 {
                let a = Ubig::random_below(n, rng);
                // Odd rounds square, so `sqr_k` sees every case too.
                let b = if round % 2 == 0 { Ubig::random_below(n, rng) } else { a.clone() };
                let ab = a.mul(&b);
                let m = ab.rem(&r).mul(&n_neg_inv).rem(&r);
                let v = ab.add(&m.mul(n)).shr(64 * k);
                assert!(v < n.add(n), "the < 2n bound");
                let (landed, want) = if &v < n {
                    (Landed::BelowN, v)
                } else if v < r {
                    (Landed::BetweenNAndR, v.sub(n))
                } else {
                    (Landed::CarrySet, v.sub(n))
                };
                let (al, bl): (L, L) = (ctx.load(a.limbs()), ctx.load(b.limbs()));
                let got = if round % 2 == 0 {
                    mul_k(&al, &bl, &nl, ctx.n0_inv)
                } else {
                    sqr_k(&al, &nl, ctx.n0_inv)
                };
                assert_eq!(
                    Ubig::from_limbs(got.as_ref().to_vec()),
                    want,
                    "{landed:?}, round {round}"
                );
                assert_eq!(ctx.mul(&a, &b), ab.rem(n));
                seen.push(landed);
            }
        }
        let mut rng = HmacDrbg::new(b"final subtraction");
        for limbs in [4usize, 8] {
            let r = Ubig::one().shl(64 * limbs);
            let near_r = r.sub(&Ubig::from_u64(189));
            let near_half = r.shr(1).add(&Ubig::from_u64(95));
            for n in [near_r, near_half] {
                let (mut on_stack, mut on_heap) = (Vec::new(), Vec::new());
                if limbs == 4 {
                    check::<[u64; 4]>(&n, &mut rng, &mut on_stack);
                } else {
                    check::<[u64; 8]>(&n, &mut rng, &mut on_stack);
                }
                check::<Vec<u64>>(&n, &mut rng, &mut on_heap);
                for mut seen in [on_stack, on_heap] {
                    seen.sort();
                    seen.dedup();
                    let carry = n.bit(64 * limbs - 2);
                    let want = if carry { Landed::CarrySet } else { Landed::BetweenNAndR };
                    assert_eq!(seen, [Landed::BelowN, want], "n = {n}");
                }
            }
        }
    }

    /// The walk's arithmetic: the width table is monotone, capped, and
    /// table-free exactly up to 32 bits.
    #[test]
    fn window_width_boundaries() {
        assert!((0..=32).all(|bits| window_width(bits) == 1));
        assert!(window_width(33) > 1);
        let widths: Vec<usize> = (0..4096).map(window_width).collect();
        assert!(widths.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(widths.last(), Some(&MAX_WINDOW));
    }

    proptest! {
        /// Montgomery mul == schoolbook mul-then-divide, across random
        /// odd moduli and operand sizes (operands may exceed the
        /// modulus; zero and one included via the 0-length vectors).
        #[test]
        fn prop_mul_matches_schoolbook(
            a in proptest::collection::vec(any::<u8>(), 0..48),
            b in proptest::collection::vec(any::<u8>(), 0..48),
            m in proptest::collection::vec(any::<u8>(), 1..40),
        ) {
            let m = odd_modulus(&m);
            let (a, b) = (Ubig::from_bytes_be(&a), Ubig::from_bytes_be(&b));
            let ctx = Montgomery::new(&m).unwrap();
            prop_assert_eq!(ctx.mul(&a, &b), a.mul(&b).rem(&m));
        }

        /// Montgomery square == schoolbook, including the
        /// `bit_len(m)`-edge operands m-1, m, and m+1.
        #[test]
        fn prop_square_matches_schoolbook(
            m in proptest::collection::vec(any::<u8>(), 1..40),
        ) {
            let m = odd_modulus(&m);
            let ctx = Montgomery::new(&m).unwrap();
            for a in [
                Ubig::zero(),
                Ubig::one(),
                m.sub(&Ubig::one()),
                m.clone(),
                m.add(&Ubig::one()),
            ] {
                prop_assert_eq!(ctx.square(&a), a.mul(&a).rem(&m));
            }
        }

        /// Montgomery windowed pow == schoolbook square-and-multiply,
        /// across random odd moduli, bases, and exponents (covering
        /// zero/one exponents and bases by construction).
        #[test]
        fn prop_pow_matches_schoolbook(
            base in proptest::collection::vec(any::<u8>(), 0..32),
            exp in proptest::collection::vec(any::<u8>(), 0..16),
            m in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let m = odd_modulus(&m);
            let (base, exp) = (Ubig::from_bytes_be(&base), Ubig::from_bytes_be(&exp));
            let ctx = Montgomery::new(&m).unwrap();
            prop_assert_eq!(ctx.pow(&base, &exp), base.modpow_schoolbook(&exp, &m));
        }

        /// Random width, base (up to three times the modulus width)
        /// and exponent shape: dense, or thinned to long zero runs by
        /// AND-ing draws together.
        #[test]
        fn prop_pow_matches_schoolbook_at_every_width(
            seed in any::<u64>(),
            pick in 0usize..WIDTHS.len(),
            base_limbs in 0usize..4,
            exp_bits in 1usize..400,
            thinning in 0usize..4,
        ) {
            let mut rng = HmacDrbg::from_u64_labeled(seed, "prop-widths");
            let limbs = WIDTHS[pick];
            let m = modulus_of(limbs, &mut rng);
            let base = Ubig::from_limbs((0..base_limbs * limbs).map(|_| rng.u64()).collect());
            let mut exp = Ubig::random_bits(exp_bits, &mut rng);
            for _ in 0..thinning {
                let mask = Ubig::random_bits(exp_bits, &mut rng);
                let thinned = exp.limbs().iter().zip(mask.limbs()).map(|(&e, &m)| e & m);
                exp = Ubig::from_limbs(thinned.collect());
            }
            let ctx = Montgomery::new(&m).unwrap();
            prop_assert_eq!(ctx.pow(&base, &exp), base.modpow_schoolbook(&exp, &m));
        }

        /// The public dispatchers agree with the schoolbook reference.
        #[test]
        fn prop_dispatch_consistency(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            e in 0u64..200,
            m in proptest::collection::vec(any::<u8>(), 1..24),
        ) {
            let m = odd_modulus(&m);
            let a = Ubig::from_bytes_be(&a);
            let e = Ubig::from_u64(e);
            prop_assert_eq!(a.modpow(&e, &m), a.modpow_schoolbook(&e, &m));
            prop_assert_eq!(a.mul_mod(&a, &m), a.mul(&a).rem(&m));
        }
    }
}
