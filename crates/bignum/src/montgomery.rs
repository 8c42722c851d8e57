//! Montgomery modular multiplication and exponentiation (CIOS variant).
//!
//! All hot-path modular exponentiations in the reproduction — RSA
//! signing/verification and homomorphic hashing — run through this context,
//! which avoids per-step divisions by keeping operands in Montgomery form.
//!
//! The context is built once per modulus and meant to be **cached by
//! callers** (`pag-crypto` stores one per RSA key and per CRT prime, and
//! one inside `HomomorphicParams`): construction computes `n'` and
//! `R² mod n`, which costs two full divisions — rebuilding it per
//! exponentiation would dominate small workloads. All internal arithmetic
//! runs on fixed-width limb buffers with explicit scratch reuse, so an
//! exponentiation performs no per-step heap allocation.

use crate::BigUint;

/// Precomputed context for modular arithmetic with a fixed odd modulus.
///
/// # Examples
///
/// ```
/// use pag_bignum::{BigUint, Montgomery};
///
/// let m = BigUint::from(1_000_000_007u64);
/// let ctx = Montgomery::new(&m).expect("odd modulus");
/// let r = ctx.pow(&BigUint::from(2u64), &BigUint::from(100u64));
/// assert_eq!(r, BigUint::from(2u64).mod_pow(&BigUint::from(100u64), &m));
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The modulus `n` (odd, > 1).
    n: BigUint,
    /// Limb count of `n`.
    k: usize,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64k)`, padded to `k` limbs; converts into
    /// Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` padded to `k` limbs: the Montgomery representation of 1.
    one: Vec<u64>,
}

/// Sliding-window width of [`Montgomery::pow`] for an exponent of
/// `exp_bits` bits: the width `w` minimising the `2^(w-1)` table
/// multiplications plus the expected `exp_bits / (w + 1)` window ones.
fn window_bits(exp_bits: usize) -> usize {
    match exp_bits {
        0..=12 => 1,
        13..=24 => 2,
        25..=80 => 3,
        81..=240 => 4,
        241..=672 => 5,
        _ => 6,
    }
}

/// Digit width of [`Montgomery::fixed_base_table`] for exponents of
/// `b = exp_bits` bits: the width `w` minimising the `b/w + 2^w − 2`
/// multiplications a [`Montgomery::pow_fixed`] may take plus the `b/w`
/// rows the table holds. A table lives as long as its base is stored
/// and serves many exponents, so a row is weighed like one
/// multiplication per power. At most 4 for a word-sized exponent.
const fn fixed_base_window(exp_bits: usize) -> usize {
    match exp_bits {
        0..=1 => 1,
        2..=11 => 2,
        12..=47 => 3,
        _ => 4,
    }
}

/// The powers `base^(2^(w·i))`, `i < ⌈exp_bits / w⌉`, of one base in
/// Montgomery form: everything [`Montgomery::pow_fixed`] needs to raise
/// that base to any exponent of up to `exp_bits` bits without squaring.
///
/// Built once per base by [`Montgomery::fixed_base_table`]; holds
/// `⌈exp_bits / w⌉` values of the modulus' width.
#[derive(Debug)]
pub struct FixedBaseTable {
    /// Widest exponent covered, in bits (at most 64); fixes `w`.
    exp_bits: usize,
    /// Row `i` is `base^(2^(w·i)) · R mod n`, one row per `k` limbs.
    rows: Box<[u64]>,
}

impl Montgomery {
    /// Builds a context for an odd modulus greater than one.
    ///
    /// Returns `None` when the modulus is even, zero, or one.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let k = modulus.limbs.len();
        let n0_inv = neg_inv_u64(modulus.limbs[0]);
        let r = BigUint::one().shl_bits(64 * k);
        let one = pad_to(&(&r % modulus), k);
        let r2 = pad_to(&(&(&r * &r) % modulus), k);
        Some(Montgomery {
            n: modulus.clone(),
            k,
            n0_inv,
            r2,
            one,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Limb width of the modulus (internal buffers are this long).
    pub fn limb_width(&self) -> usize {
        self.k
    }

    /// Converts a reduced value (`< n`) into Montgomery form.
    pub fn to_mont(&self, a: &BigUint) -> BigUint {
        assert!(a < &self.n, "operand must be reduced");
        let ap = pad_to(a, self.k);
        let mut out = vec![0u64; self.k];
        let mut t = vec![0u64; self.k + 2];
        self.mont_mul_slices(&ap, &self.r2, &mut out, &mut t);
        BigUint::from_limbs(out)
    }

    /// Converts a value out of Montgomery form.
    pub fn from_mont(&self, a: &BigUint) -> BigUint {
        self.mont_mul(a, &BigUint::one())
    }

    /// Montgomery product: `a * b * R^{-1} mod n`.
    ///
    /// Operands must be reduced (`< n`). Allocates its own buffers; the
    /// exponentiation paths below reuse scratch instead.
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        // Hard assert: pad_to would silently drop high limbs of an
        // unreduced operand and return a wrong product.
        assert!(a < &self.n && b < &self.n, "operands must be reduced");
        let ap = pad_to(a, self.k);
        let bp = pad_to(b, self.k);
        let mut out = vec![0u64; self.k];
        let mut t = vec![0u64; self.k + 2];
        self.mont_mul_slices(&ap, &bp, &mut out, &mut t);
        BigUint::from_limbs(out)
    }

    /// Modular product of two **reduced** values without any division:
    /// two chained Montgomery multiplications (`(a·b·R⁻¹)·R²·R⁻¹ = a·b`).
    ///
    /// Faster than `BigUint::mod_mul` (multiply + full divide) for the
    /// 512-bit-and-up moduli the protocol uses.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        assert!(a < &self.n && b < &self.n, "operands must be reduced");
        let k = self.k;
        let ap = pad_to(a, k);
        let bp = pad_to(b, k);
        let mut ab = vec![0u64; k];
        let mut t = vec![0u64; k + 2];
        self.mont_mul_slices(&ap, &bp, &mut ab, &mut t);
        let mut out = vec![0u64; k];
        self.mont_mul_slices(&ab, &self.r2, &mut out, &mut t);
        BigUint::from_limbs(out)
    }

    /// Fused CIOS Montgomery product over fixed-width limb slices.
    ///
    /// `a`, `b` and `out` are exactly `k` limbs; `t` is at least `k + 1`
    /// limbs of scratch (cleared here). `out` must not alias `a` or `b`.
    ///
    /// Dispatches to a monomorphized kernel for the protocol's hot limb
    /// widths — 4 (the 256-bit CRT primes behind every RSA-512
    /// signature) and 8 (the 512-bit RSA and homomorphic moduli) — where
    /// the unrolled inner loop keeps both carry chains in registers; any
    /// other width takes the generic loop.
    fn mont_mul_slices(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        match self.k {
            2 => self.mont_mul_fixed::<2>(a, b, out),
            4 => self.mont_mul_fixed::<4>(a, b, out),
            8 => self.mont_mul_fixed::<8>(a, b, out),
            _ => self.mont_mul_generic(a, b, out, t),
        }
    }

    /// Monomorphized CIOS kernel: identical algorithm to
    /// [`Self::mont_mul_generic`], but with the limb count a compile-time
    /// constant the whole double carry chain unrolls flat.
    fn mont_mul_fixed<const K: usize>(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let a: &[u64; K] = a[..K].try_into().expect("operand width");
        let b: &[u64; K] = b[..K].try_into().expect("operand width");
        let n: &[u64; K] = self.n.limbs[..K].try_into().expect("modulus width");
        let mut t = [0u64; K];
        let mut t_hi = 0u64;

        for &ai in a {
            // Column 0 fixes the reduction multiplier m for this row.
            let p = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (p as u64).wrapping_mul(self.n0_inv);
            let q = (p as u64) as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(q as u64, 0);
            let mut carry_mul = p >> 64;
            let mut carry_red = q >> 64;
            for j in 1..K {
                let p = t[j] as u128 + ai as u128 * b[j] as u128 + carry_mul;
                carry_mul = p >> 64;
                let q = (p as u64) as u128 + m as u128 * n[j] as u128 + carry_red;
                carry_red = q >> 64;
                t[j - 1] = q as u64;
            }
            let s = t_hi as u128 + carry_mul + carry_red;
            t[K - 1] = s as u64;
            t_hi = (s >> 64) as u64;
        }

        // Accumulated value is < 2n: subtract n once if needed.
        if t_hi != 0 || !slice_lt(&t, n) {
            let mut borrow = 0i128;
            for j in 0..K {
                let diff = t[j] as i128 - n[j] as i128 + borrow;
                out[j] = diff as u64;
                borrow = diff >> 64;
            }
        } else {
            out[..K].copy_from_slice(&t);
        }
    }

    /// Generic CIOS loop for moduli whose limb count has no dedicated
    /// kernel.
    ///
    /// The multiplication by `a_i` and the reduction by `m·n` run in one
    /// pass per outer limb (two separate carry chains), with the one-limb
    /// shift folded into the write index — each inner iteration touches
    /// `t[j]` once instead of three times.
    fn mont_mul_generic(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.k;
        let a = &a[..k];
        let b = &b[..k];
        let n = &self.n.limbs[..k];
        let t = &mut t[..k + 1];
        let out = &mut out[..k];
        t.fill(0);

        for &ai in a {
            // Column 0 fixes the reduction multiplier m for this row.
            let p = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (p as u64).wrapping_mul(self.n0_inv);
            let q = (p as u64) as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(q as u64, 0);
            let mut carry_mul = p >> 64; // carry of the a_i * b chain
            let mut carry_red = q >> 64; // carry of the m * n chain
            for j in 1..k {
                let p = t[j] as u128 + ai as u128 * b[j] as u128 + carry_mul;
                carry_mul = p >> 64;
                let q = (p as u64) as u128 + m as u128 * n[j] as u128 + carry_red;
                carry_red = q >> 64;
                t[j - 1] = q as u64;
            }
            let s = t[k] as u128 + carry_mul + carry_red;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }

        // Accumulated value is < 2n: subtract n once if needed.
        if t[k] != 0 || !slice_lt(&t[..k], n) {
            let mut borrow = 0i128;
            for j in 0..k {
                let diff = t[j] as i128 - n[j] as i128 + borrow;
                out[j] = diff as u64;
                borrow = diff >> 64;
            }
        } else {
            out.copy_from_slice(&t[..k]);
        }
    }

    /// Modular exponentiation `base^exp mod n` by sliding windows over a
    /// table of odd powers, the window width chosen by exponent length.
    ///
    /// `base` need not be reduced. All intermediate state lives in a
    /// handful of buffers allocated once per call. A base that reduces to
    /// 0 or 1 is its own power and returns at once: the protocol hashes
    /// the empty multiset (the value 1) on most exchanges.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one() % &self.n;
        }
        let base_red = base % &self.n;
        if exp.is_one() || base_red.is_zero() || base_red.is_one() {
            return base_red;
        }
        let k = self.k;
        let bits = exp.bit_len();
        let w = window_bits(bits);
        let rows = 1usize << (w - 1);

        let mut t = vec![0u64; k + 2];
        let mut tmp = vec![0u64; k];

        // table[i] = base^(2i+1) in Montgomery form, as rows of a flat
        // buffer: a window ends on a set bit, so only odd powers occur.
        let mut table = vec![0u64; rows * k];
        let base_p = pad_to(&base_red, k);
        self.mont_mul_slices(&base_p, &self.r2, &mut table[..k], &mut t);
        if rows > 1 {
            let mut base_sq = vec![0u64; k];
            self.mont_mul_slices(&table[..k], &table[..k], &mut base_sq, &mut t);
            for i in 1..rows {
                let (prev, cur) = table.split_at_mut(i * k);
                self.mont_mul_slices(&prev[(i - 1) * k..], &base_sq, &mut cur[..k], &mut t);
            }
        }

        // Scan down from the top bit (`hi` bits remain): a clear bit
        // squares; a set bit opens a window of up to w bits that ends on
        // a set bit. The top bit is set, so the first step seeds `acc`
        // from the table (skipping that window's squarings) before any
        // clear bit is met.
        let mut acc: Vec<u64> = Vec::new();
        let mut hi = bits;
        while hi > 0 {
            if !exp.bit(hi - 1) {
                self.mont_mul_slices(&acc, &acc, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
                hi -= 1;
                continue;
            }
            let mut lo = hi.saturating_sub(w);
            while !exp.bit(lo) {
                lo += 1;
            }
            let row = &table[(window_value(exp, lo, hi - lo) >> 1) * k..][..k];
            if acc.is_empty() {
                acc = row.to_vec();
            } else {
                for _ in lo..hi {
                    self.mont_mul_slices(&acc, &acc, &mut tmp, &mut t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                self.mont_mul_slices(&acc, row, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            hi = lo;
        }

        self.redc_out(&acc, &mut tmp, &mut t)
    }

    /// Modular exponentiation with a machine-word exponent.
    ///
    /// Plain square-and-multiply: for sparse exponents like the RSA
    /// verification exponent `e = 65537` this is 16 squarings plus one
    /// multiplication — cheaper than windowing (no table build).
    pub fn pow_u64(&self, base: &BigUint, exp: u64) -> BigUint {
        if exp == 0 {
            return BigUint::one() % &self.n;
        }
        let base_red = base % &self.n;
        if exp == 1 || base_red.is_zero() || base_red.is_one() {
            return base_red;
        }
        let k = self.k;
        let mut t = vec![0u64; k + 2];
        let mut tmp = vec![0u64; k];
        let base_p = pad_to(&base_red, k);
        let mut base_m = vec![0u64; k];
        self.mont_mul_slices(&base_p, &self.r2, &mut base_m, &mut t);

        let acc = self.pow_mont_u64(&base_m, exp, &mut tmp, &mut t);
        self.redc_out(&acc, &mut tmp, &mut t)
    }

    /// `base_m^exp` for a Montgomery-form base and machine-word exponent
    /// `>= 1`, MSB-first square-and-multiply over the shared scratch.
    fn pow_mont_u64(&self, base_m: &[u64], exp: u64, tmp: &mut Vec<u64>, t: &mut [u64]) -> Vec<u64> {
        debug_assert!(exp >= 1);
        let mut acc = base_m.to_vec();
        let bits = 64 - exp.leading_zeros();
        for i in (0..bits - 1).rev() {
            self.mont_mul_slices(&acc, &acc, tmp, t);
            std::mem::swap(&mut acc, tmp);
            if (exp >> i) & 1 == 1 {
                self.mont_mul_slices(&acc, base_m, tmp, t);
                std::mem::swap(&mut acc, tmp);
            }
        }
        acc
    }

    /// Power table of `base` for [`Self::pow_fixed`], covering exponents
    /// of up to `exp_bits` bits: one conversion and `w` squarings per row
    /// after the first, about `exp_bits` squarings in all — the cost of
    /// one [`Self::pow`], paid once per base instead of once per
    /// exponent.
    ///
    /// `base` need not be reduced. Returns `None` unless
    /// `1 <= exp_bits <= 64`: the product reads its digits off a machine
    /// word, so wider exponents take [`Self::pow`].
    pub fn fixed_base_table(&self, base: &BigUint, exp_bits: usize) -> Option<FixedBaseTable> {
        if !(1..=64).contains(&exp_bits) {
            return None;
        }
        let k = self.k;
        let w = fixed_base_window(exp_bits);
        let rows_len = exp_bits.div_ceil(w);
        let mut rows = vec![0u64; rows_len * k];
        let mut t = vec![0u64; k + 2];
        let mut tmp = vec![0u64; k];
        let base_p = pad_to(&(base % &self.n), k);
        self.mont_mul_slices(&base_p, &self.r2, &mut rows[..k], &mut t);
        for i in 1..rows_len {
            let (prev, cur) = rows.split_at_mut(i * k);
            let cur = &mut cur[..k];
            cur.copy_from_slice(&prev[(i - 1) * k..]);
            for _ in 0..w {
                self.mont_mul_slices(cur, cur, &mut tmp, &mut t);
                cur.copy_from_slice(&tmp);
            }
        }
        Some(FixedBaseTable {
            exp_bits,
            rows: rows.into_boxed_slice(),
        })
    }

    /// `base^exp mod n` from `base`'s [`FixedBaseTable`] by the
    /// Brickell–Gordon–McCurley–Wilson method ("Fast Exponentiation with
    /// Precomputation", EUROCRYPT '92).
    ///
    /// With `exp = Σ d_i·2^(w·i)` and rows `g_i = base^(2^(w·i))`, the
    /// running product `run_d = Π_{d_i >= d} g_i` taken for `d` from
    /// `2^w − 1` down to 1 multiplies out to `Π_d run_d = Π g_i^(d_i)`:
    /// at most `⌈exp_bits / w⌉ + 2^w − 2` multiplications and no
    /// squarings. The result equals [`Self::pow`]'s.
    ///
    /// Returns `None` when `exp` is wider than the table covers.
    pub fn pow_fixed(&self, table: &FixedBaseTable, exp: &BigUint) -> Option<BigUint> {
        let e = exp.to_u64()?;
        if (u64::BITS - e.leading_zeros()) as usize > table.exp_bits {
            return None;
        }
        debug_assert_eq!(table.rows.len() % self.k, 0, "table of another width");
        Some(match self.k {
            2 => self.fixed_base_product(table, e, [0u64; 2]),
            4 => self.fixed_base_product(table, e, [0u64; 4]),
            8 => self.fixed_base_product(table, e, [0u64; 8]),
            k => self.fixed_base_product(table, e, vec![0u64; k]),
        })
    }

    /// The product of [`Self::pow_fixed`] over `k`-limb buffers cloned
    /// from `zero`: stack arrays for the fixed kernels' widths, vectors
    /// for the generic loop.
    fn fixed_base_product<B>(&self, table: &FixedBaseTable, e: u64, zero: B) -> BigUint
    where
        B: Clone + AsRef<[u64]> + AsMut<[u64]>,
    {
        let k = self.k;
        let w = fixed_base_window(table.exp_bits);
        let mask = (1u64 << w) - 1;
        // The fixed kernels keep their carries in registers; only the
        // generic loop needs scratch.
        let mut t = match k {
            2 | 4 | 8 => Vec::new(),
            _ => vec![0u64; k + 2],
        };
        // Bit i of `by_digit[d]` marks the rows whose digit is d.
        let mut by_digit = [0u64; 1 << fixed_base_window(64)];
        for i in 0..table.rows.len() / k {
            by_digit[((e >> (w * i)) & mask) as usize] |= 1 << i;
        }
        let (mut acc, mut run, mut tmp) = (zero.clone(), zero.clone(), zero);
        let (mut acc_set, mut run_set) = (false, false);
        for d in (1..=mask as usize).rev() {
            let mut rows = by_digit[d];
            while rows != 0 {
                let row = &table.rows[rows.trailing_zeros() as usize * k..][..k];
                rows &= rows - 1;
                if run_set {
                    self.mont_mul_slices(run.as_ref(), row, tmp.as_mut(), &mut t);
                    std::mem::swap(&mut run, &mut tmp);
                } else {
                    run.as_mut().copy_from_slice(row);
                    run_set = true;
                }
            }
            if !run_set {
                continue;
            }
            if acc_set {
                self.mont_mul_slices(acc.as_ref(), run.as_ref(), tmp.as_mut(), &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.as_mut().copy_from_slice(run.as_ref());
                acc_set = true;
            }
        }
        if !acc_set {
            return BigUint::one(); // e = 0, and n > 1
        }
        // Out of Montgomery form: multiply by raw 1.
        let one_raw = tmp.as_mut();
        one_raw.fill(0);
        one_raw[0] = 1;
        let mut out = vec![0u64; k];
        self.mont_mul_slices(acc.as_ref(), tmp.as_ref(), &mut out, &mut t);
        BigUint::from_limbs(out)
    }

    /// Converts a Montgomery-form buffer out of the domain (multiply by
    /// raw 1). Leaves `tmp` emptied.
    fn redc_out(&self, acc: &[u64], tmp: &mut Vec<u64>, t: &mut [u64]) -> BigUint {
        let mut one_raw = vec![0u64; self.k];
        one_raw[0] = 1;
        self.mont_mul_slices(acc, &one_raw, tmp, t);
        BigUint::from_limbs(std::mem::take(tmp))
    }
}

/// Division-free running product modulo a cached [`Montgomery`] context.
///
/// The protocol's multiset products (`Π residue_i^{count_i} mod M`) used
/// to perform one full multiply-and-divide per factor. This accumulator
/// multiplies **raw** (unconverted) factors straight into a
/// Montgomery-form running product — one word-width multiplication per
/// factor, no conversion, no division — while counting the `R⁻¹` each
/// raw factor drags in. [`MontAccumulator::finish`] repays the whole
/// debt at once with a single `R^d mod n` exponentiation (logarithmic
/// in the factor count).
///
/// # Examples
///
/// ```
/// use pag_bignum::{BigUint, Montgomery, MontAccumulator};
///
/// let m = BigUint::from(1_000_003u64);
/// let ctx = Montgomery::new(&m).unwrap();
/// let mut acc = MontAccumulator::new(&ctx);
/// acc.mul(&BigUint::from(123u64));
/// acc.mul_pow(&BigUint::from(45u64), 3);
/// let expected = BigUint::from(123u64 * 45 * 45 * 45) % &m;
/// assert_eq!(acc.finish(), expected);
/// ```
pub struct MontAccumulator<'m> {
    ctx: &'m Montgomery,
    /// Running product: equals `P · R^(1 - debt)` for true product `P`.
    acc: Vec<u64>,
    /// Number of raw factors multiplied in so far (the `R⁻¹` debt).
    debt: u64,
    /// CIOS scratch (`k + 2` limbs).
    t: Vec<u64>,
    /// Output swap buffer (`k` limbs).
    tmp: Vec<u64>,
}

/// Count above which [`MontAccumulator::mul_pow`] converts the value to
/// Montgomery form and square-and-multiplies instead of looping raw
/// multiplications.
const POW_LOOP_LIMIT: u32 = 16;

impl<'m> MontAccumulator<'m> {
    /// Starts a product at one.
    pub fn new(ctx: &'m Montgomery) -> Self {
        MontAccumulator {
            acc: ctx.one.clone(),
            debt: 0,
            t: vec![0u64; ctx.k + 2],
            tmp: vec![0u64; ctx.k],
            ctx,
        }
    }

    /// Multiplies a **reduced** value (`< n`) into the product.
    pub fn mul(&mut self, value: &BigUint) {
        assert!(value < &self.ctx.n, "operand must be reduced");
        let vp = pad_to(value, self.ctx.k);
        self.mul_raw(&vp);
    }

    /// Multiplies `value^count` into the product (`value < n`).
    ///
    /// Small counts (the protocol's duplicate-reception multiplicities)
    /// loop raw multiplications; large counts convert once and
    /// square-and-multiply in Montgomery form.
    pub fn mul_pow(&mut self, value: &BigUint, count: u32) {
        if count == 0 {
            return;
        }
        assert!(value < &self.ctx.n, "operand must be reduced");
        let vp = pad_to(value, self.ctx.k);
        if count <= POW_LOOP_LIMIT {
            for _ in 0..count {
                self.mul_raw(&vp);
            }
            return;
        }
        // vm = value · R (proper Montgomery form): multiplying by it
        // leaves the debt unchanged, so the power can be built in-domain.
        let mut vm = vec![0u64; self.ctx.k];
        self.ctx.mont_mul_slices(&vp, &self.ctx.r2, &mut vm, &mut self.t);
        let pw = self
            .ctx
            .pow_mont_u64(&vm, count as u64, &mut self.tmp, &mut self.t);
        // pw = value^count · R: one more mont_mul cancels the extra R.
        self.ctx.mont_mul_slices(&self.acc, &pw, &mut self.tmp, &mut self.t);
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    /// The accumulated product, out of Montgomery form.
    pub fn finish(mut self) -> BigUint {
        if self.debt == 0 && self.acc == self.ctx.one {
            // Nothing was multiplied in: acc is still R, the product is 1.
            return BigUint::one();
        }
        // acc = P · R^(1 - debt); multiplying by R^debt (raw) under one
        // more Montgomery reduction yields P exactly.
        let r_raw = BigUint::from_limbs(self.ctx.one.clone());
        let correction = self.ctx.pow(&r_raw, &BigUint::from(self.debt));
        let cp = pad_to(&correction, self.ctx.k);
        self.ctx
            .mont_mul_slices(&self.acc, &cp, &mut self.tmp, &mut self.t);
        BigUint::from_limbs(self.tmp)
    }

    /// Multiplies a raw (non-Montgomery) padded value in, incurring one
    /// `R⁻¹` of debt.
    fn mul_raw(&mut self, vp: &[u64]) {
        self.ctx.mont_mul_slices(&self.acc, vp, &mut self.tmp, &mut self.t);
        std::mem::swap(&mut self.acc, &mut self.tmp);
        self.debt += 1;
    }
}

/// Little-endian limbs of `v` padded with zeros to exactly `k` limbs.
fn pad_to(v: &BigUint, k: usize) -> Vec<u64> {
    debug_assert!(v.limbs.len() <= k);
    let mut out = v.limbs.clone();
    out.resize(k, 0);
    out
}

/// `a < b` over equal-length little-endian limb slices.
fn slice_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Bits `[lo, lo + w)` of `exp` as a window value.
fn window_value(exp: &BigUint, lo: usize, w: usize) -> usize {
    let mut val = 0usize;
    for b in (0..w).rev() {
        val = (val << 1) | exp.bit(lo + b) as usize;
    }
    val
}

/// Computes `-n^{-1} mod 2^64` for odd `n` by Newton's iteration.
pub(crate) fn neg_inv_u64(n: u64) -> u64 {
    debug_assert!(n & 1 == 1);
    // x converges to n^{-1} mod 2^64 after 6 doublings of precision.
    let mut x = n; // correct mod 2^3 already for odd n? start with n works mod 2^2
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_inv_is_inverse() {
        for n in [1u64, 3, 5, 0xdeadbeef | 1, u64::MAX] {
            let ninv = neg_inv_u64(n);
            assert_eq!(n.wrapping_mul(ninv.wrapping_neg()), 1, "n = {n}");
        }
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&BigUint::from(10u64)).is_none());
        assert!(Montgomery::new(&BigUint::from(9u64)).is_some());
    }

    #[test]
    fn mont_form_roundtrip() {
        let m = BigUint::from(1_000_000_007u64);
        let ctx = Montgomery::new(&m).unwrap();
        for v in [0u64, 1, 2, 999_999_999, 1_000_000_006] {
            let v = BigUint::from(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v);
        }
    }

    #[test]
    fn mul_matches_naive_reduction() {
        let m = BigUint::from_hex_str("c2f869dd0f7a4f5b4d8f0a1b2c3d4e5f").unwrap();
        let m = if m.is_even() { &m + &BigUint::one() } else { m };
        let ctx = Montgomery::new(&m).unwrap();
        let a = BigUint::from_hex_str("123456789abcdef0fedcba9876543210").unwrap() % &m;
        let b = BigUint::from_hex_str("aa55aa55aa55aa55aa55aa55aa55aa55").unwrap() % &m;
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let prod = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        assert_eq!(prod, (&a * &b) % &m);
    }

    #[test]
    fn mul_mod_matches_divide_reduce() {
        let m = BigUint::from_hex_str("ffffffffffffffffffffffffffffff61").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let a = BigUint::from_hex_str("123456789abcdef00000000deadbeef1").unwrap() % &m;
        let b = BigUint::from_hex_str("fedcba9876543210ffffffff00000001").unwrap() % &m;
        assert_eq!(ctx.mul_mod(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn pow_matches_small_cases() {
        let m = BigUint::from(97u64);
        let ctx = Montgomery::new(&m).unwrap();
        for base in 0u64..20 {
            for exp in 0u64..20 {
                let got = ctx.pow(&BigUint::from(base), &BigUint::from(exp));
                let mut acc = 1u64;
                for _ in 0..exp {
                    acc = acc * base % 97;
                }
                assert_eq!(got.to_u64(), Some(acc), "base={base} exp={exp}");
                let via_u64 = ctx.pow_u64(&BigUint::from(base), exp);
                assert_eq!(via_u64.to_u64(), Some(acc), "pow_u64 base={base} exp={exp}");
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = BigUint::from(101u64);
        let ctx = Montgomery::new(&m).unwrap();
        assert!(ctx.pow(&BigUint::from(5u64), &BigUint::zero()).is_one());
        assert!(ctx.pow_u64(&BigUint::from(5u64), 0).is_one());
    }

    #[test]
    fn pow_unreduced_base() {
        let m = BigUint::from(13u64);
        let ctx = Montgomery::new(&m).unwrap();
        // 100^3 mod 13 = (9)^3 mod 13 = 729 mod 13 = 1
        let r = ctx.pow(&BigUint::from(100u64), &BigUint::from(3u64));
        assert_eq!(r.to_u64(), Some(1));
        assert_eq!(ctx.pow_u64(&BigUint::from(100u64), 3).to_u64(), Some(1));
    }

    #[test]
    fn pow_wide_window_path() {
        // A 526-bit exponent takes the 5-bit window.
        let m = BigUint::from_hex_str("f000000000000000000000000000000d").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let mut exp = BigUint::one().shl_bits(525);
        exp = &exp + &BigUint::from(0x1234_5678_9abc_def1u64);
        let base = BigUint::from(0xdead_beefu64);
        assert_eq!(ctx.pow(&base, &exp), base.mod_pow(&exp, &m));
    }

    #[test]
    fn pow_u64_verification_exponent() {
        let m = BigUint::from_hex_str("c000000000000000000000000000004f").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let base = BigUint::from(0x1234_5678u64);
        let e = 65_537u64;
        assert_eq!(ctx.pow_u64(&base, e), base.mod_pow(&BigUint::from(e), &m));
    }

    #[test]
    fn accumulator_matches_mod_mul_chain() {
        let m = BigUint::from_hex_str("deadbeefdeadbeefdeadbeefdeadbeb1").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let values: Vec<BigUint> = (1u64..20)
            .map(|i| BigUint::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % &m)
            .collect();
        let mut acc = MontAccumulator::new(&ctx);
        let mut expected = BigUint::one();
        for (i, v) in values.iter().enumerate() {
            let count = (i % 4) as u32; // exercise 0, 1 and >1 counts
            acc.mul_pow(v, count);
            for _ in 0..count {
                expected = expected.mod_mul(v, &m);
            }
        }
        assert_eq!(acc.finish(), expected);
    }

    #[test]
    fn fixed_kernels_match_generic_at_every_width() {
        // Build odd moduli of 1..10 limbs so the dispatch covers the
        // monomorphized widths (2, 4, 8) and the generic fallback, and
        // pin mul/pow against the division-based naive path.
        for limbs in 1..10usize {
            let mut m = BigUint::one().shl_bits(64 * limbs) - BigUint::from(0x2f1du64);
            if m.is_even() {
                m = &m + &BigUint::one();
            }
            let ctx = Montgomery::new(&m).unwrap();
            assert_eq!(ctx.limb_width(), limbs);
            let a = BigUint::from(0x9E37_79B9_7F4A_7C15u64).mod_pow(&BigUint::from(3u64), &m);
            let b = BigUint::from(0xDEAD_BEEF_CAFE_F00Du64).mod_pow(&BigUint::from(5u64), &m);
            assert_eq!(ctx.mul_mod(&a, &b), a.mod_mul(&b, &m), "{limbs} limbs");
            let e = BigUint::from(0x1_0001u64);
            assert_eq!(ctx.pow(&a, &e), a.mod_pow(&e, &m), "{limbs} limbs");
            assert_eq!(ctx.pow_u64(&a, 65_537), a.mod_pow(&e, &m), "{limbs} limbs");
        }
    }

    #[test]
    fn accumulator_empty_is_one() {
        let ctx = Montgomery::new(&BigUint::from(101u64)).unwrap();
        assert!(MontAccumulator::new(&ctx).finish().is_one());
    }
}
