//! Sign hashes: independent maps from keys to `{-1, +1}`.
//!
//! CountSketch and the AMS F₂ ("tug of war") estimator both need sign hashes
//! whose limited independence makes the variance analysis go through.
//!
//! [`SignHashBank`] is the batched form: the AMS sketch evaluates *hundreds*
//! of independent sign hashes per item, and doing that through a
//! `Vec<SignHash>` chases a heap-allocated coefficient vector per hash per
//! key.  The bank transposes the degree-3 polynomials into
//! structure-of-arrays coefficient columns and shares the key powers
//! `x, x², x³` across every hash — same field values, bit for bit, as the
//! Horner evaluation [`SignHash`] performs.
//!
//! # The item-outer block kernel
//!
//! [`SignHashBank::eval_block`] is the hot-path shape: instead of walking
//! counters in the outer loop and re-evaluating the key powers' products per
//! counter, it takes the whole batch of precomputed key powers and fills a
//! transposed `items × counters` **sign matrix**, packed eight sign bits per
//! byte ([`SIGN_BLOCK`]).  The per-item powers amortize across all counters
//! and the per-counter coefficient loads amortize across the item block; the
//! ± applies then run over the packed matrix with no field arithmetic left
//! in them ([`signed_sums_block_i64`], with [`signed_sum_i64_packed`] as the
//! per-counter reference).
//!
//! The kernel keeps PR 8's lazy-`u128` trick — the dot product
//! `c₀ + c₁x + c₂x² + c₃x³` accumulates unreduced and is folded once — and
//! only ever extracts the *parity of the canonical representative*.  Since
//! canonical representatives in `GF(2^61 − 1)` are unique, any exact fold
//! sequence yields the same parity, which is what lets two interchangeable
//! lowerings coexist bit-identically:
//!
//! * a scalar path (the portable default), folding `u128 → u64 → u64` and
//!   correcting the parity for the final conditional subtract with
//!   `(f₂ ≥ p)` instead of materializing the subtract; and
//! * an AVX-512 path (runtime-detected on x86-64), which splits the 61-bit
//!   operands into 31/30-bit limbs so `vpmuludq` covers every partial
//!   product, eight counters per vector, and reads the parity bits straight
//!   out of mask registers.  Measured ≈2× the round-3 counter-outer kernel
//!   on the AMS shape.
//!
//! # Sign families
//!
//! [`SignFamily`] selects where the sign bits come from (mirroring
//! [`crate::HashBackend`] for the row hashes):
//!
//! * [`SignFamily::Polynomial4`] — the provable default: one degree-3
//!   polynomial over `GF(2^61 − 1)` per counter, 4-wise independent, which is
//!   exactly the independence the AMS variance bound
//!   `Var[Z²] ≤ 2 F₂²` consumes (the fourth moment `E[σ(a)σ(b)σ(c)σ(d)]`
//!   must vanish for distinct keys).
//! * [`SignFamily::Tabulation`] — Pătraşcu–Thorup simple tabulation
//!   ([`TabSignBank`]): each 64-bit table word yields 64 *mutually
//!   independent* sign hashes (bit `j` of the XOR of eight random table
//!   entries is itself a simple tabulation hash into `{0, 1}`), so a bank of
//!   `⌈counters/64⌉` tables serves the whole sketch at a few table lookups
//!   per item.  Only **3-wise** independent: `E[Z²] = F₂` still holds
//!   exactly (pairwise suffices), but the `Var[Z²]` bound is heuristic —
//!   simple tabulation is known to behave fully randomly for such moment
//!   estimates, yet the paper's constant is no longer a theorem.  Sketches
//!   built from different families refuse to merge, and checkpoints carry
//!   the family tag.

use crate::kwise::KWiseHash;
use crate::prime::{mul, reduce, reduce128, MERSENNE_PRIME_61};
use crate::tabulation::TabulationHash;

/// Sign hashes per packed sign-matrix byte: `eval_block` kernels emit the
/// sign bits of `SIGN_BLOCK` consecutive hashes into one byte per item.
pub const SIGN_BLOCK: usize = 8;

/// Which family a sketch's sign hashes are drawn from.  The sign-hash
/// analogue of [`crate::HashBackend`]: same selection, naming and
/// checkpoint-tag discipline, applied to the AMS tug-of-war bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SignFamily {
    /// Degree-3 polynomials over `GF(2^61 − 1)`: 4-wise independent — the
    /// independence the AMS variance bound is proved from.  The default.
    #[default]
    Polynomial4,
    /// Simple tabulation word banks: 3-wise independent, multiplication-free,
    /// fastest per evaluation; the `F₂` variance constant becomes heuristic.
    Tabulation,
}

impl SignFamily {
    /// A short stable name (used by benchmark reports and config dumps).
    pub fn name(self) -> &'static str {
        match self {
            SignFamily::Polynomial4 => "polynomial4",
            SignFamily::Tabulation => "tabulation",
        }
    }

    /// A stable single-byte tag for binary encodings (checkpoint format).
    /// Tags are append-only: existing values never change meaning.
    pub fn tag(self) -> u8 {
        match self {
            SignFamily::Polynomial4 => 0,
            SignFamily::Tabulation => 1,
        }
    }

    /// Decode a family from its [`tag`](Self::tag); `None` for unknown tags
    /// (e.g. a checkpoint written by a newer version, or corrupt bytes).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SignFamily::Polynomial4),
            1 => Some(SignFamily::Tabulation),
            _ => None,
        }
    }
}

/// A sign hash `σ : u64 → {-1, +1}` drawn from a k-wise independent family
/// (k = 4 by default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignHash {
    inner: KWiseHash,
}

impl SignHash {
    /// Draw a 4-wise independent sign hash.
    pub fn new(seed: u64) -> Self {
        Self::with_independence(4, seed)
    }

    /// Draw a sign hash from a `k`-wise independent family.
    pub fn with_independence(k: usize, seed: u64) -> Self {
        Self {
            inner: KWiseHash::new(k, seed),
        }
    }

    /// Evaluate the sign of a key: `+1` or `-1`.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        if self.inner.hash(key) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Evaluate as an `f64` (convenience for floating-point accumulators).
    #[inline]
    pub fn sign_f64(&self, key: u64) -> f64 {
        self.sign(key) as f64
    }
}

/// A bank of independent 4-wise sign hashes evaluated together.
///
/// Semantically identical to `Vec<SignHash>` built from the same seeds: for
/// every index `i` and key `x`, `bank.sign_at(i, powers)` equals
/// `SignHash::new(seeds[i]).sign(x)` — both compute the canonical reduced
/// field element `c₀ + c₁x + c₂x² + c₃x³` over `GF(2^61 − 1)` and take its
/// low bit, so the agreement is exact, not approximate.  The layout is what
/// differs: coefficients live in contiguous columns (one per degree, plus
/// 31/30-bit limb splits of the padded columns for the vector kernel)
/// instead of one heap vector per hash, and the key powers are computed once
/// per key instead of once per hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignHashBank {
    /// Transposed coefficients: `cN[i]` is hash `i`'s degree-`N` coefficient.
    c0: Vec<u64>,
    c1: Vec<u64>,
    c2: Vec<u64>,
    c3: Vec<u64>,
    /// The same columns zero-padded to `blocks() * SIGN_BLOCK`, so the block
    /// kernels always run whole blocks (padding lanes produce bits no apply
    /// ever reads).
    c0p: Vec<u64>,
    c1p: Vec<u64>,
    c2p: Vec<u64>,
    c3p: Vec<u64>,
    /// 31-bit low / 30-bit high limb splits of the padded degree-1..3
    /// columns: every `vpmuludq` partial product in the AVX-512 kernel takes
    /// two sub-32-bit operands.
    c1l: Vec<u64>,
    c1h: Vec<u64>,
    c2l: Vec<u64>,
    c2h: Vec<u64>,
    c3l: Vec<u64>,
    c3h: Vec<u64>,
}

/// Low-limb mask for the 31/30-bit coefficient split.
const LIMB_MASK: u64 = (1 << 31) - 1;

impl SignHashBank {
    /// Build the bank from per-hash seeds, drawing each polynomial exactly as
    /// `SignHash::new(seed)` does.
    pub fn from_seeds(seeds: &[u64]) -> Self {
        let padded = seeds.len().div_ceil(SIGN_BLOCK) * SIGN_BLOCK;
        let mut bank = Self {
            c0: Vec::with_capacity(seeds.len()),
            c1: Vec::with_capacity(seeds.len()),
            c2: Vec::with_capacity(seeds.len()),
            c3: Vec::with_capacity(seeds.len()),
            c0p: vec![0; padded],
            c1p: vec![0; padded],
            c2p: vec![0; padded],
            c3p: vec![0; padded],
            c1l: vec![0; padded],
            c1h: vec![0; padded],
            c2l: vec![0; padded],
            c2h: vec![0; padded],
            c3l: vec![0; padded],
            c3h: vec![0; padded],
        };
        for (i, &seed) in seeds.iter().enumerate() {
            let poly = KWiseHash::new(4, seed);
            let c = poly.coefficients();
            bank.c0.push(c[0]);
            bank.c1.push(c[1]);
            bank.c2.push(c[2]);
            bank.c3.push(c[3]);
            bank.c0p[i] = c[0];
            bank.c1p[i] = c[1];
            bank.c2p[i] = c[2];
            bank.c3p[i] = c[3];
            bank.c1l[i] = c[1] & LIMB_MASK;
            bank.c1h[i] = c[1] >> 31;
            bank.c2l[i] = c[2] & LIMB_MASK;
            bank.c2h[i] = c[2] >> 31;
            bank.c3l[i] = c[3] & LIMB_MASK;
            bank.c3h[i] = c[3] >> 31;
        }
        bank
    }

    /// Number of sign hashes in the bank.
    pub fn len(&self) -> usize {
        self.c0.len()
    }

    /// Whether the bank holds no hashes.
    pub fn is_empty(&self) -> bool {
        self.c0.is_empty()
    }

    /// Number of [`SIGN_BLOCK`]-wide blocks the packed sign matrix has per
    /// item: `ceil(len / SIGN_BLOCK)`.
    pub fn blocks(&self) -> usize {
        self.len().div_ceil(SIGN_BLOCK)
    }

    /// The reduced key powers `(x, x², x³)` shared by every hash in the bank
    /// — compute once per key, reuse across all `len()` evaluations.
    #[inline]
    pub fn key_powers(key: u64) -> (u64, u64, u64) {
        let x = reduce(key);
        let x2 = mul(x, x);
        let x3 = mul(x2, x);
        (x, x2, x3)
    }

    /// Hash `i`'s coefficients `[c₀, c₁, c₂, c₃]`, for callers that hoist the
    /// loads out of a per-key inner loop.
    #[inline]
    pub fn coefficients_at(&self, i: usize) -> [u64; 4] {
        [self.c0[i], self.c1[i], self.c2[i], self.c3[i]]
    }

    /// Evaluate one degree-3 polynomial on precomputed key powers.  The
    /// result is the same canonical field element Horner evaluation yields:
    /// the whole dot product `c₀ + c₁x + c₂x² + c₃x³` is accumulated in
    /// `u128` (three products below `p²` plus `c₀` stay under `2^124`) and
    /// reduced **once**, instead of reducing after every multiply and add.
    /// Canonical representatives are unique, so the single lazy reduction
    /// yields the identical `u64`.
    #[inline]
    pub fn eval_with(coeffs: [u64; 4], powers: (u64, u64, u64)) -> u64 {
        let (x, x2, x3) = powers;
        reduce128(
            (coeffs[3] as u128) * (x3 as u128)
                + (coeffs[2] as u128) * (x2 as u128)
                + (coeffs[1] as u128) * (x as u128)
                + coeffs[0] as u128,
        )
    }

    /// Hash `i`'s sign (`+1` / `-1`) on precomputed key powers.
    #[inline]
    pub fn sign_at(&self, i: usize, powers: (u64, u64, u64)) -> i64 {
        if Self::eval_with(self.coefficients_at(i), powers) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Hash `i`'s sign as an `f64` (convenience for floating accumulators).
    #[inline]
    pub fn sign_f64_at(&self, i: usize, powers: (u64, u64, u64)) -> f64 {
        self.sign_at(i, powers) as f64
    }

    /// The item-outer block kernel: evaluate **every** hash in the bank on
    /// **every** item of a batch of precomputed key-power columns
    /// (`x1[t], x2[t], x3[t]` = the [`key_powers`](Self::key_powers) of item
    /// `t`), and pack the sign bits into the transposed sign matrix
    /// `sign_bytes`.
    ///
    /// Layout: `sign_bytes[b * n + t]` holds, in bit `j`, the sign bit of
    /// hash `b * SIGN_BLOCK + j` on item `t` (`1` ⇔ `+1`), with
    /// `n = x1.len()` and `b < blocks()`.  Each block's row of `n` bytes is
    /// contiguous, so the per-counter applies stream it.
    ///
    /// The sign bit is the parity of the canonical field element — exactly
    /// `eval_with(..) & 1`, proven equal by canonical-representative
    /// uniqueness and asserted by the equivalence proptests.  Dispatches to
    /// the AVX-512 limb kernel when the CPU has it, otherwise to the scalar
    /// block kernel; both produce identical bytes in the unpadded lanes.
    pub fn eval_block(&self, x1: &[u64], x2: &[u64], x3: &[u64], sign_bytes: &mut Vec<u8>) {
        let n = x1.len();
        debug_assert_eq!(n, x2.len());
        debug_assert_eq!(n, x3.len());
        let blocks = self.blocks();
        sign_bytes.clear();
        sign_bytes.resize(blocks * n, 0);
        if n == 0 || blocks == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: feature detection above guarantees the target features
            // the kernel is compiled with; slice lengths are checked inside.
            unsafe { self.eval_block_avx512(x1, x2, x3, sign_bytes) };
            return;
        }
        self.eval_block_scalar(x1, x2, x3, sign_bytes);
    }

    /// Portable lowering of [`eval_block`](Self::eval_block): block-outer /
    /// item-inner with the block's eight coefficient quadruples hoisted into
    /// locals, lazy-`u128` accumulation, and the two-fold parity extraction
    /// (`bit = (f₂ ⊕ [f₂ ≥ p]) & 1` — the conditional subtract of the
    /// canonical fold only flips parity, `p` being odd).
    fn eval_block_scalar(&self, x1: &[u64], x2: &[u64], x3: &[u64], sign_bytes: &mut [u8]) {
        let n = x1.len();
        let p = MERSENNE_PRIME_61;
        for (b, out) in sign_bytes.chunks_exact_mut(n).enumerate() {
            let base = b * SIGN_BLOCK;
            let a0: &[u64] = &self.c0p[base..base + SIGN_BLOCK];
            let a1: &[u64] = &self.c1p[base..base + SIGN_BLOCK];
            let a2: &[u64] = &self.c2p[base..base + SIGN_BLOCK];
            let a3: &[u64] = &self.c3p[base..base + SIGN_BLOCK];
            for t in 0..n {
                let (p1, p2, p3) = (x1[t], x2[t], x3[t]);
                let mut kb = 0u8;
                for j in 0..SIGN_BLOCK {
                    let v = (a3[j] as u128) * (p3 as u128)
                        + (a2[j] as u128) * (p2 as u128)
                        + (a1[j] as u128) * (p1 as u128)
                        + a0[j] as u128;
                    let f1 = ((v as u64) & p) + ((v >> 61) as u64);
                    let f2 = (f1 & p) + (f1 >> 61);
                    let bit = (f2 ^ u64::from(f2 >= p)) & 1;
                    kb |= (bit as u8) << j;
                }
                out[t] = kb;
            }
        }
    }

    /// AVX-512 lowering of [`eval_block`](Self::eval_block): eight counters
    /// per vector, item-inner.  The 61-bit modmuls decompose into 31/30-bit
    /// limbs (`a·x = aL·xL + (aH·xL + aL·xH)·2³¹ + aH·xH·2⁶²`) so `vpmuludq`
    /// covers every partial product; the congruences `2⁶¹ ≡ 1` and `2⁶² ≡ 2`
    /// fold the limb sums back under 64 bits without carries, and the parity
    /// of the canonical residue comes out of mask registers
    /// (`vptestmq ⊕ vpcmpuq`).  Exact modular arithmetic throughout, so the
    /// bits match the scalar kernel everywhere.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn eval_block_avx512(&self, x1: &[u64], x2: &[u64], x3: &[u64], sign_bytes: &mut [u8]) {
        use std::arch::x86_64::*;
        let n = x1.len();
        let p = _mm512_set1_epi64(MERSENNE_PRIME_61 as i64);
        let mask30 = _mm512_set1_epi64(((1u64 << 30) - 1) as i64);
        let one = _mm512_set1_epi64(1);
        for (b, out) in sign_bytes.chunks_exact_mut(n).enumerate() {
            let base = b * SIGN_BLOCK;
            let a0 = _mm512_loadu_si512(self.c0p.as_ptr().add(base) as *const _);
            let a1l = _mm512_loadu_si512(self.c1l.as_ptr().add(base) as *const _);
            let a1h = _mm512_loadu_si512(self.c1h.as_ptr().add(base) as *const _);
            let a2l = _mm512_loadu_si512(self.c2l.as_ptr().add(base) as *const _);
            let a2h = _mm512_loadu_si512(self.c2h.as_ptr().add(base) as *const _);
            let a3l = _mm512_loadu_si512(self.c3l.as_ptr().add(base) as *const _);
            let a3h = _mm512_loadu_si512(self.c3h.as_ptr().add(base) as *const _);
            for t in 0..n {
                let x1l = _mm512_set1_epi64((x1[t] & LIMB_MASK) as i64);
                let x1h = _mm512_set1_epi64((x1[t] >> 31) as i64);
                let x2l = _mm512_set1_epi64((x2[t] & LIMB_MASK) as i64);
                let x2h = _mm512_set1_epi64((x2[t] >> 31) as i64);
                let x3l = _mm512_set1_epi64((x3[t] & LIMB_MASK) as i64);
                let x3h = _mm512_set1_epi64((x3[t] >> 31) as i64);
                // Limb partial products, summed across the three powers.
                // Bounds (limbs < 2³¹, highs < 2³⁰): each `lo`/`mid` term
                // < 2⁶², sums of three < 2⁶⁴; `hi` sums < 2⁶¹.
                let lo = _mm512_add_epi64(
                    _mm512_add_epi64(_mm512_mul_epu32(a1l, x1l), _mm512_mul_epu32(a2l, x2l)),
                    _mm512_mul_epu32(a3l, x3l),
                );
                let mid = _mm512_add_epi64(
                    _mm512_add_epi64(
                        _mm512_add_epi64(_mm512_mul_epu32(a1h, x1l), _mm512_mul_epu32(a1l, x1h)),
                        _mm512_add_epi64(_mm512_mul_epu32(a2h, x2l), _mm512_mul_epu32(a2l, x2h)),
                    ),
                    _mm512_add_epi64(_mm512_mul_epu32(a3h, x3l), _mm512_mul_epu32(a3l, x3h)),
                );
                let hi = _mm512_add_epi64(
                    _mm512_add_epi64(_mm512_mul_epu32(a1h, x1h), _mm512_mul_epu32(a2h, x2h)),
                    _mm512_mul_epu32(a3h, x3h),
                );
                // value ≡ lo + mid·2³¹ + hi·2⁶² + c₀ (mod p).  Fold `lo`
                // first so the five-term sum stays under 2⁶⁴, then use
                // mid·2³¹ = (mid >> 30)·2⁶¹ + (mid & mask30)·2³¹
                //         ≡ (mid >> 30) + (mid & mask30) << 31,
                // and 2⁶² ≡ 2.
                let lo_f = _mm512_add_epi64(_mm512_and_si512(lo, p), _mm512_srli_epi64(lo, 61));
                let t_sum = _mm512_add_epi64(
                    _mm512_add_epi64(
                        _mm512_add_epi64(lo_f, _mm512_srli_epi64(mid, 30)),
                        _mm512_add_epi64(
                            _mm512_slli_epi64(_mm512_and_si512(mid, mask30), 31),
                            _mm512_slli_epi64(hi, 1),
                        ),
                    ),
                    a0,
                );
                // Two folds bring the lazy sum to f₂ ≤ p + 1; the canonical
                // value is f₂ − p when f₂ ≥ p, which only flips parity.
                let f1 = _mm512_add_epi64(_mm512_and_si512(t_sum, p), _mm512_srli_epi64(t_sum, 61));
                let f2 = _mm512_add_epi64(_mm512_and_si512(f1, p), _mm512_srli_epi64(f1, 61));
                let k_bit = _mm512_test_epi64_mask(f2, one);
                let k_ge = _mm512_cmpge_epu64_mask(f2, p);
                *out.get_unchecked_mut(t) = k_bit ^ k_ge;
            }
        }
    }
}

/// A bank of sign hashes drawn from simple tabulation word tables.
///
/// One [`TabulationHash`] with 64-bit entries yields 64 mutually independent
/// sign hashes — bit `j` of `h(key)` is the XOR of bit `j` of eight random
/// table entries, i.e. an independent simple tabulation hash into `{0, 1}` —
/// so `⌈len/64⌉` tables cover the whole bank and an item's entire sign row
/// costs a handful of table lookups instead of one polynomial per counter.
/// 3-wise independent (the limit of simple tabulation), see the module docs
/// for what that does to the AMS variance bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TabSignBank {
    tabs: Vec<TabulationHash>,
    len: usize,
}

/// Sign hashes per tabulation word.
const WORD_BITS: usize = 64;

impl TabSignBank {
    /// Build `len` sign hashes from a master seed (one derived seed per
    /// 64-hash word table).
    pub fn from_seed(master: u64, len: usize) -> Self {
        let words = len.div_ceil(WORD_BITS);
        let tabs = crate::derive_seeds(master, words)
            .into_iter()
            .map(TabulationHash::new)
            .collect();
        Self { tabs, len }
    }

    /// Number of sign hashes in the bank.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bank holds no hashes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of [`SIGN_BLOCK`]-wide blocks the packed sign matrix has per
    /// item.
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(SIGN_BLOCK)
    }

    /// Hash `i`'s sign (`+1` / `-1`) for a key.
    #[inline]
    pub fn sign_at(&self, i: usize, key: u64) -> i64 {
        debug_assert!(i < self.len);
        let word = self.tabs[i / WORD_BITS].hash(key);
        (((word >> (i % WORD_BITS)) & 1) as i64) * 2 - 1
    }

    /// The block kernel: evaluate every sign hash on every key and pack the
    /// bits into the same `sign_bytes` layout as
    /// [`SignHashBank::eval_block`] (`sign_bytes[b * n + t]`, bit `j` =
    /// hash `b * SIGN_BLOCK + j` on item `t`).  `hv` is reused scratch for
    /// the per-table word values.
    pub fn eval_block(&self, keys: &[u64], hv: &mut Vec<u64>, sign_bytes: &mut Vec<u8>) {
        let n = keys.len();
        let blocks = self.blocks();
        sign_bytes.clear();
        sign_bytes.resize(blocks * n, 0);
        if n == 0 || blocks == 0 {
            return;
        }
        hv.clear();
        hv.resize(n, 0);
        for (w, tab) in self.tabs.iter().enumerate() {
            hv.iter_mut().for_each(|v| *v = 0);
            tab.hash_into(keys, hv);
            let first_block = w * (WORD_BITS / SIGN_BLOCK);
            let word_blocks = (blocks - first_block).min(WORD_BITS / SIGN_BLOCK);
            for (jb, row) in sign_bytes[first_block * n..]
                .chunks_exact_mut(n)
                .take(word_blocks)
                .enumerate()
            {
                let shift = (jb * SIGN_BLOCK) as u32;
                for (dst, &word) in row.iter_mut().zip(hv.iter()) {
                    *dst = (word >> shift) as u8;
                }
            }
        }
    }

    /// Rough size of the bank in 64-bit words (for space accounting).
    pub fn space_words(&self) -> usize {
        self.tabs.len() * 8 * 256
    }
}

/// A family-dispatched sign bank: the per-counter sign source of the AMS
/// sketch, selectable between [`SignFamily::Polynomial4`]
/// ([`SignHashBank`]) and [`SignFamily::Tabulation`] ([`TabSignBank`]).
/// Both variants fill the identical packed sign-matrix layout, so the ±
/// applies downstream are family-agnostic.
// The polynomial variant holds the transposed coefficient vectors inline on
// purpose: the bank lives once per sketch and is read on every eval, so the
// size asymmetry is not worth a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SignBank {
    /// Degree-3 polynomial bank (4-wise independent).
    Polynomial(SignHashBank),
    /// Simple tabulation word bank (3-wise independent).
    Tabulation(TabSignBank),
}

impl SignBank {
    /// Build a bank of `len` sign hashes of the given family from a master
    /// seed.  The polynomial family derives one seed per hash (exactly the
    /// legacy `SignHashBank` derivation, so defaults are bit-compatible);
    /// tabulation derives one seed per 64-hash word table.
    pub fn from_seed(family: SignFamily, master: u64, len: usize) -> Self {
        match family {
            SignFamily::Polynomial4 => {
                SignBank::Polynomial(SignHashBank::from_seeds(&crate::derive_seeds(master, len)))
            }
            SignFamily::Tabulation => SignBank::Tabulation(TabSignBank::from_seed(master, len)),
        }
    }

    /// The family this bank was drawn from.
    pub fn family(&self) -> SignFamily {
        match self {
            SignBank::Polynomial(_) => SignFamily::Polynomial4,
            SignBank::Tabulation(_) => SignFamily::Tabulation,
        }
    }

    /// Number of sign hashes in the bank.
    pub fn len(&self) -> usize {
        match self {
            SignBank::Polynomial(b) => b.len(),
            SignBank::Tabulation(b) => b.len(),
        }
    }

    /// Whether the bank holds no hashes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of [`SIGN_BLOCK`]-wide blocks the packed sign matrix has per
    /// item.
    pub fn blocks(&self) -> usize {
        self.len().div_ceil(SIGN_BLOCK)
    }

    /// Hash `i`'s sign (`+1` / `-1`) for a key — the one-off query path;
    /// batch ingestion goes through the block kernels.
    #[inline]
    pub fn sign_at_key(&self, i: usize, key: u64) -> i64 {
        match self {
            SignBank::Polynomial(b) => b.sign_at(i, SignHashBank::key_powers(key)),
            SignBank::Tabulation(b) => b.sign_at(i, key),
        }
    }

    /// Rough size of the bank in 64-bit words (for space accounting).
    pub fn space_words(&self) -> usize {
        match self {
            SignBank::Polynomial(b) => 4 * b.len(),
            SignBank::Tabulation(b) => b.space_words(),
        }
    }
}

/// Batched tug-of-war accumulation over one packed sign-matrix row:
/// `Σ_t σ(t) · δ_t` in wrapping `i64` (exact mod 2⁶⁴), where `σ(t)` is bit
/// `bit` of `row[t]` (`1` ⇔ `+1`) — the apply stage matching the
/// [`SignHashBank::eval_block`] layout.  The ± select is branchless
/// (`m` is `0` for `+δ` and `-1` for `-δ`, and `(δ ^ m) - m` is
/// two's-complement negation when `m = -1`), so a fair-coin sign bit costs
/// no mispredicts.  Every operation wraps, so any delta — `i64::MIN`
/// included — is valid input.
#[inline]
pub fn signed_sum_i64_packed(row: &[u8], bit: u32, deltas: &[i64]) -> i64 {
    debug_assert_eq!(row.len(), deltas.len());
    let mut acc = 0i64;
    for (&kb, &d) in row.iter().zip(deltas) {
        let m = (((kb >> bit) & 1) as i64) - 1;
        acc = acc.wrapping_add((d ^ m).wrapping_sub(m));
    }
    acc
}

/// Whole-block apply stage: the eight tug-of-war sums
/// `sums[j] = Σ_t σ_j(t) · δ_t` of one packed sign-matrix row at once,
/// where `σ_j(t)` is bit `j` of `row[t]` (`1` ⇔ `+1`).
///
/// All eight counters of a [`SIGN_BLOCK`] share the same byte row and the
/// same deltas, so one fused pass loads each byte and delta once instead of
/// eight times (the per-counter [`signed_sum_i64_packed`] walk re-reads
/// them per bit).  The sums wrap, so they are exact mod 2⁶⁴ for every input
/// and independent of accumulation order — the AVX-512 lane-parallel
/// reduction and the scalar item-order walk return identical values.
#[inline]
pub fn signed_sums_block_i64(row: &[u8], deltas: &[i64]) -> [i64; SIGN_BLOCK] {
    debug_assert_eq!(row.len(), deltas.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: feature detection above guarantees the target features the
        // kernel is compiled with; lengths are equal per the debug assert
        // and the kernel only indexes below `row.len()`.
        return unsafe { signed_sums_block_avx512(row, deltas) };
    }
    signed_sums_block_scalar(row, deltas)
}

/// Portable lowering of [`signed_sums_block_i64`]: item-outer with eight
/// branchless ± accumulators (`m` is `0` for `+δ`, `-1` for `-δ`).
fn signed_sums_block_scalar(row: &[u8], deltas: &[i64]) -> [i64; SIGN_BLOCK] {
    let mut sums = [0i64; SIGN_BLOCK];
    for (&kb, &d) in row.iter().zip(deltas) {
        for (j, sum) in sums.iter_mut().enumerate() {
            let m = (((kb >> j) & 1) as i64) - 1;
            *sum = sum.wrapping_add((d ^ m).wrapping_sub(m));
        }
    }
    sums
}

/// AVX-512 lowering of [`signed_sums_block_i64`]: eight items per vector.
/// Each step zero-extends eight row bytes into qword lanes and loads the
/// matching eight deltas once; per sign bit, `vptestmq` against `1 << j`
/// yields the lane mask and a masked blend between `δ` and `-δ` feeds a
/// per-bit accumulator — 8 × 64 signed adds from one byte/delta load pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn signed_sums_block_avx512(row: &[u8], deltas: &[i64]) -> [i64; SIGN_BLOCK] {
    use std::arch::x86_64::*;
    let n = row.len();
    let zero = _mm512_setzero_si512();
    let bits: [__m512i; SIGN_BLOCK] = std::array::from_fn(|j| _mm512_set1_epi64(1i64 << j));
    let mut acc = [zero; SIGN_BLOCK];
    let mut t = 0usize;
    while t + 8 <= n {
        let bytes = _mm_loadl_epi64(row.as_ptr().add(t) as *const _);
        let bv = _mm512_cvtepu8_epi64(bytes);
        let d = _mm512_loadu_si512(deltas.as_ptr().add(t) as *const _);
        let neg_d = _mm512_sub_epi64(zero, d);
        for j in 0..SIGN_BLOCK {
            let k = _mm512_test_epi64_mask(bv, bits[j]);
            acc[j] = _mm512_add_epi64(acc[j], _mm512_mask_blend_epi64(k, neg_d, d));
        }
        t += 8;
    }
    let mut sums: [i64; SIGN_BLOCK] = std::array::from_fn(|j| _mm512_reduce_add_epi64(acc[j]));
    // Scalar tail for the last n mod 8 items.
    for (&kb, &d) in row[t..].iter().zip(&deltas[t..]) {
        for (j, sum) in sums.iter_mut().enumerate() {
            let m = (((kb >> j) & 1) as i64) - 1;
            *sum = sum.wrapping_add((d ^ m).wrapping_sub(m));
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_are_plus_or_minus_one() {
        let s = SignHash::new(3);
        for key in 0..1000u64 {
            let v = s.sign(key);
            assert!(v == 1 || v == -1);
            assert_eq!(v as f64, s.sign_f64(key));
        }
    }

    #[test]
    fn deterministic() {
        let a = SignHash::new(17);
        let b = SignHash::new(17);
        for key in 0..256u64 {
            assert_eq!(a.sign(key), b.sign(key));
        }
    }

    #[test]
    fn balanced_over_keys() {
        let s = SignHash::new(1234);
        let sum: i64 = (0..100_000u64).map(|k| s.sign(k)).sum();
        // Standard deviation is sqrt(100000) ≈ 316; allow 6 sigma.
        assert!(sum.abs() < 2000, "sign sum {sum} too biased");
    }

    #[test]
    fn pair_products_have_near_zero_mean_across_seeds() {
        // E[σ(a)σ(b)] = 0 for a ≠ b under pairwise independence.
        let trials = 4000;
        let mut sum = 0i64;
        for seed in 0..trials {
            let s = SignHash::new(seed as u64);
            sum += s.sign(10) * s.sign(20);
        }
        let mean = sum as f64 / trials as f64;
        assert!(mean.abs() < 0.06, "pair product mean {mean} not near 0");
    }

    #[test]
    fn bank_matches_individual_sign_hashes_bit_for_bit() {
        let seeds: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 7)
            .collect();
        let bank = SignHashBank::from_seeds(&seeds);
        let singles: Vec<SignHash> = seeds.iter().map(|&s| SignHash::new(s)).collect();
        assert_eq!(bank.len(), singles.len());
        assert!(!bank.is_empty());
        for key in (0..50_000u64)
            .step_by(97)
            .chain([u64::MAX, u64::MAX - 1, 0])
        {
            let powers = SignHashBank::key_powers(key);
            for (i, single) in singles.iter().enumerate() {
                assert_eq!(
                    bank.sign_at(i, powers),
                    single.sign(key),
                    "bank/single mismatch at hash {i}, key {key}"
                );
                assert_eq!(
                    bank.sign_f64_at(i, powers).to_bits(),
                    single.sign_f64(key).to_bits()
                );
            }
        }
    }

    #[test]
    fn bank_eval_matches_kwise_hash_values() {
        // Stronger than sign equality: the full field element must match the
        // Horner evaluation, since the fast paths key off the low bit of
        // exactly this value.
        for seed in [0u64, 1, 42, u64::MAX] {
            let poly = KWiseHash::new(4, seed);
            let bank = SignHashBank::from_seeds(&[seed]);
            for key in (0..10_000u64).step_by(53) {
                let powers = SignHashBank::key_powers(key);
                assert_eq!(
                    SignHashBank::eval_with(bank.coefficients_at(0), powers),
                    poly.hash(key),
                    "field value mismatch for seed {seed}, key {key}"
                );
            }
        }
    }

    /// Pack key powers for a slice of keys (test helper mirroring what the
    /// AMS batch path does).
    fn powers_of(keys: &[u64]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let (mut x1, mut x2, mut x3) = (Vec::new(), Vec::new(), Vec::new());
        for &k in keys {
            let (a, b, c) = SignHashBank::key_powers(k);
            x1.push(a);
            x2.push(b);
            x3.push(c);
        }
        (x1, x2, x3)
    }

    /// The block kernel agrees bit for bit with per-item `sign_at` for every
    /// hash and key — adversarial keys, bank sizes off the block boundary,
    /// and batch lengths from one to odd non-powers-of-two.  This covers
    /// whichever lowering (scalar or AVX-512) the host dispatches to.
    #[test]
    fn eval_block_matches_per_item_signs() {
        let keys: Vec<u64> = (0..97u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([
                0,
                0,
                1,
                u64::MAX,
                u64::MAX - 1,
                (1 << 61) - 1,
                1 << 61,
                1 << 63,
            ])
            .collect();
        let (x1, x2, x3) = powers_of(&keys);
        let mut sign_bytes = Vec::new();
        for bank_len in [1usize, 7, 8, 9, 64, 320] {
            let seeds: Vec<u64> = (0..bank_len as u64).map(|i| i ^ 0xF00D).collect();
            let bank = SignHashBank::from_seeds(&seeds);
            assert_eq!(bank.blocks(), bank_len.div_ceil(SIGN_BLOCK));
            for n in [1usize, 2, 7, 16, 33, keys.len()] {
                bank.eval_block(&x1[..n], &x2[..n], &x3[..n], &mut sign_bytes);
                assert_eq!(sign_bytes.len(), bank.blocks() * n);
                for i in 0..bank_len {
                    let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                    for (t, &key) in keys[..n].iter().enumerate() {
                        let expected = bank.sign_at(i, SignHashBank::key_powers(key));
                        let got = (((row[t] >> (i % SIGN_BLOCK)) & 1) as i64) * 2 - 1;
                        assert_eq!(got, expected, "hash {i}, item {t} (key {key}), n={n}");
                    }
                }
            }
        }
    }

    /// The scalar lowering is the semantic reference: on hosts that dispatch
    /// to AVX-512, this pins the two lowerings to identical bytes.
    #[test]
    fn scalar_and_dispatched_lowerings_agree() {
        let keys: Vec<u64> = (0..513u64)
            .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95) ^ (i << 55))
            .collect();
        let (x1, x2, x3) = powers_of(&keys);
        let bank = SignHashBank::from_seeds(&crate::derive_seeds(0xA115, 320));
        let mut dispatched = Vec::new();
        bank.eval_block(&x1, &x2, &x3, &mut dispatched);
        let mut scalar = vec![0u8; bank.blocks() * keys.len()];
        bank.eval_block_scalar(&x1, &x2, &x3, &mut scalar);
        assert_eq!(dispatched, scalar);
    }

    #[test]
    fn packed_signed_sums_match_scalar_accumulation() {
        let seeds = [3u64, 99, u64::MAX];
        let bank = SignHashBank::from_seeds(&seeds);
        let keys: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x517C_C1B7) ^ 5)
            .collect();
        let deltas: Vec<i64> = (0..200i64).map(|i| (i * 37 - 2000) % 911).collect();
        let (x1, x2, x3) = powers_of(&keys);
        let mut sign_bytes = Vec::new();
        bank.eval_block(&x1, &x2, &x3, &mut sign_bytes);
        let n = keys.len();
        for i in 0..bank.len() {
            let mut scalar_i = 0i64;
            for (t, &k) in keys.iter().enumerate() {
                let powers = SignHashBank::key_powers(k);
                scalar_i += bank.sign_at(i, powers) * deltas[t];
            }
            let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
            let bit = (i % SIGN_BLOCK) as u32;
            assert_eq!(signed_sum_i64_packed(row, bit, &deltas), scalar_i);
        }
    }

    #[test]
    fn block_signed_sums_match_per_bit_sums() {
        // The fused whole-block apply must agree with eight per-bit walks —
        // on the dispatched lowering, the scalar lowering, across tail
        // lengths that exercise the vector kernel's n mod 8 remainder, and
        // with deltas near ±2⁶³ (`i64::MIN` included) whose sums wrap.
        for n in [0usize, 1, 7, 8, 9, 64, 157] {
            let row: Vec<u8> = (0..n).map(|t| (t as u8).wrapping_mul(37) ^ 0xA5).collect();
            let small: Vec<i64> = (0..n as i64).map(|t| (t * 73 - 1000) % 517).collect();
            let extreme: Vec<i64> = (0..n as i64)
                .map(|t| [i64::MIN, i64::MAX, i64::MIN + 1, -3][t as usize % 4] ^ t)
                .collect();
            for deltas in [small, extreme] {
                let expected: [i64; SIGN_BLOCK] =
                    std::array::from_fn(|j| signed_sum_i64_packed(&row, j as u32, &deltas));
                assert_eq!(signed_sums_block_i64(&row, &deltas), expected);
                assert_eq!(signed_sums_block_scalar(&row, &deltas), expected);
            }
        }
    }

    #[test]
    fn four_way_products_have_near_zero_mean_across_seeds() {
        // E[σ(a)σ(b)σ(c)σ(d)] = 0 for distinct keys under 4-wise independence.
        let trials = 6000;
        let mut sum = 0i64;
        for seed in 0..trials {
            let s = SignHash::new(seed as u64 + 5_000);
            sum += s.sign(1) * s.sign(2) * s.sign(3) * s.sign(4);
        }
        let mean = sum as f64 / trials as f64;
        assert!(mean.abs() < 0.06, "4-way product mean {mean} not near 0");
    }

    #[test]
    fn sign_family_names_tags_and_default() {
        assert_eq!(SignFamily::Polynomial4.name(), "polynomial4");
        assert_eq!(SignFamily::Tabulation.name(), "tabulation");
        assert_eq!(SignFamily::default(), SignFamily::Polynomial4);
        for family in [SignFamily::Polynomial4, SignFamily::Tabulation] {
            assert_eq!(SignFamily::from_tag(family.tag()), Some(family));
        }
        assert_eq!(SignFamily::from_tag(2), None);
        assert_eq!(SignFamily::from_tag(255), None);
    }

    #[test]
    fn tab_bank_block_kernel_matches_per_item_signs() {
        let keys: Vec<u64> = (0..131u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .chain([0, 0, u64::MAX, 1 << 63])
            .collect();
        let mut hv = Vec::new();
        let mut sign_bytes = Vec::new();
        for len in [1usize, 63, 64, 65, 320] {
            let bank = TabSignBank::from_seed(0xBEEF, len);
            assert_eq!(bank.len(), len);
            assert!(!bank.is_empty());
            for n in [1usize, 5, 16, keys.len()] {
                bank.eval_block(&keys[..n], &mut hv, &mut sign_bytes);
                assert_eq!(sign_bytes.len(), bank.blocks() * n);
                for i in 0..len {
                    let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                    for (t, &key) in keys[..n].iter().enumerate() {
                        let got = (((row[t] >> (i % SIGN_BLOCK)) & 1) as i64) * 2 - 1;
                        assert_eq!(got, bank.sign_at(i, key), "hash {i}, key {key}, n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn tab_bank_signs_balanced_and_pairwise_clean() {
        let bank = TabSignBank::from_seed(77, 128);
        for i in [0usize, 63, 64, 127] {
            let sum: i64 = (0..50_000u64).map(|k| bank.sign_at(i, k)).sum();
            assert!(sum.abs() < 1500, "hash {i} sign sum {sum} too biased");
        }
        // Distinct word-bank bits must be (empirically) uncorrelated.
        let cross: i64 = (0..50_000u64)
            .map(|k| bank.sign_at(3, k) * bank.sign_at(70, k))
            .sum();
        assert!(cross.abs() < 1500, "cross-bit correlation {cross}");
    }

    #[test]
    fn sign_bank_dispatch_and_identity() {
        for family in [SignFamily::Polynomial4, SignFamily::Tabulation] {
            let bank = SignBank::from_seed(family, 0xA11CE, 40);
            assert_eq!(bank.family(), family);
            assert_eq!(bank.len(), 40);
            assert!(!bank.is_empty());
            assert_eq!(bank.blocks(), 5);
            assert!(bank.space_words() > 0);
            for i in [0usize, 7, 39] {
                for key in [0u64, 1, u64::MAX] {
                    let s = bank.sign_at_key(i, key);
                    assert!(s == 1 || s == -1);
                }
            }
        }
        // The polynomial variant is bit-compatible with the legacy
        // seed-per-hash derivation.
        let legacy = SignHashBank::from_seeds(&crate::derive_seeds(0xA11CE, 40));
        let bank = SignBank::from_seed(SignFamily::Polynomial4, 0xA11CE, 40);
        for key in (0..5_000u64).step_by(41) {
            for i in 0..40 {
                assert_eq!(
                    bank.sign_at_key(i, key),
                    legacy.sign_at(i, SignHashBank::key_powers(key))
                );
            }
        }
    }
}
