//! `k`-bit gradient codec for distributed exchange (RCT-style quantised
//! communication).
//!
//! Data-parallel ranks cannot afford to ship fp32 gradients: a replica
//! exchange costs `32N` bits per step per peer. This module encodes a
//! gradient tensor as **symmetric `k`-bit signed codes on a shared scale**
//! — one kernel, [`GradCodec::codes`], whose output a reducer sums as
//! `i32`s and [`GradCodec::encode`] stores in the same [`CodeStore`] tiers
//! the weights use — serialised through the canonical
//! [`PackedCodes`](crate::PackedCodes) words, so `k = 4` traffic really is
//! one eighth of fp32 on the wire.
//!
//! ## Encoding
//!
//! Given the step's global gradient magnitude `gmax` (an all-reduce *max*,
//! which is order-independent and therefore deterministic), every rank
//! uses the same scale
//!
//! ```text
//! s = gmax / (2^(k−1) − 1)
//! ```
//!
//! and encodes `c = clamp(round((g + r) / s), −m, m)` with `m = 2^(k−1)−1`.
//! The clamp range is symmetric — the pattern `−2^(k−1)` is never
//! produced — so a sum of `N` rank codes is bounded by `N·m` and fits
//! exactly in `k + ceil(log2 N)` bits: the reduce can stay in the integer
//! domain (DQT-style) with **no rounding and no overflow**, which is what
//! makes the reduction bit-exact regardless of arrival order.
//!
//! ## Error feedback
//!
//! The quantisation error `r' = (g + r) − c·s` is carried to the next step
//! (1-bit-SGD / EF-SGD style residual): nothing the quantiser drops is
//! lost, it is just delayed. The residual state lives with the caller —
//! one `Vec<f32>` per parameter per rank.

use crate::{Bitwidth, CodeStore};

/// Shared-scale symmetric `k`-bit gradient quantiser.
///
/// Stateless: the per-parameter error-feedback residual is owned by the
/// caller and threaded through [`encode`](GradCodec::encode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradCodec {
    bits: Bitwidth,
}

impl GradCodec {
    /// Creates a codec at `bits` precision.
    pub fn new(bits: Bitwidth) -> Self {
        GradCodec { bits }
    }

    /// The codec's bitwidth.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Largest code magnitude: `m = 2^(k−1) − 1` (symmetric range).
    fn max_mag(&self) -> i64 {
        (1i64 << (self.bits.get() - 1)) - 1
    }

    /// The shared scale for a step whose global gradient magnitude is
    /// `gmax`. Returns `0.0` when `gmax` is zero or non-finite — the
    /// all-zero-codes sentinel every rank agrees on.
    pub fn scale(&self, gmax: f32) -> f32 {
        if gmax.is_finite() && gmax > 0.0 {
            gmax / self.max_mag() as f32
        } else {
            0.0
        }
    }

    /// Bitwidth wide enough to hold any sum of `world` codes from this
    /// codec: `k + ceil(log2 world)`, clamped into the legal `[2, 32]`
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError`] when the sum width would exceed 32 bits
    /// (`k + ceil(log2 world) > 32`).
    pub fn sum_bits(&self, world: usize) -> crate::Result<Bitwidth> {
        let extra = usize::BITS - world.max(1).next_power_of_two().leading_zeros() - 1;
        Bitwidth::new(self.bits.get() + extra)
    }

    /// The codec's one kernel: the signed codes of `grad + residual` on
    /// the shared `scale` grid, in element order, each residual updated
    /// with its error feedback as its code is produced. Everything that
    /// quantises a gradient is this iterator zipped into a destination —
    /// [`encode`](GradCodec::encode)'s tier, a reducer's `i32` sums.
    ///
    /// `c = clamp(round(a / s), −m, m)` with `a = g + r`, rounding half
    /// away from zero as `f32::round` does, without the libm call and
    /// without a float-to-int cast (which saturates, and so does not
    /// vectorise). Three steps, each exact for every f32 quotient `x`:
    ///
    /// 1. *Clamp first.* `m` is an integer and rounding is monotone, so
    ///    `clamp(round(x)) = round(clamp(x))`; from here `v = |x| ≤ m <
    ///    2^31`, and ±∞ quotients (a subnormal `scale`) are already `±m`.
    /// 2. *Nearest integer from the mantissa.* In f64, `v + 2^52` lies in
    ///    `[2^52, 2^53)` where the spacing is 1, so the addition itself
    ///    rounds `v` to the nearest integer, ties to even, and leaves it in
    ///    the low mantissa bits; subtracting `2^52` back is exact.
    /// 3. *Ties away.* `v − nearest` is exact (`v` is an f32 widened; the
    ///    difference is at most ½) and equals `½` only when a tie went
    ///    down to the even neighbour; adding one there is `⌊v + ½⌋`.
    ///
    /// A zero `scale` or a non-finite `a` selects code 0 — the quotient is
    /// then garbage nobody reads — and `a − 0 · s` banks `a` whole, so the
    /// loop has no branch and compiles to vector code.
    ///
    /// # Panics
    ///
    /// Debug-asserts `grad.len() == residual.len()`.
    #[inline]
    pub fn codes<'a>(
        &self,
        grad: &'a [f32],
        residual: &'a mut [f32],
        scale: f32,
    ) -> impl Iterator<Item = i32> + 'a {
        /// `2^52`: the first f64 binade whose spacing is 1.
        const UNIT: f64 = 4_503_599_627_370_496.0;
        debug_assert_eq!(grad.len(), residual.len());
        let m = self.max_mag() as f64;
        let live = scale > 0.0;
        grad.iter().zip(residual).map(move |(&g, r)| {
            let a = g + *r;
            let x = f64::from(a / scale).clamp(-m, m);
            let v = x.abs();
            let shifted = v + UNIT;
            let tie_went_down = v - (shifted - UNIT) == 0.5;
            let mag = shifted.to_bits() as u32 as i32 + i32::from(tie_went_down);
            let c = if x < 0.0 { -mag } else { mag };
            let c = if live & a.is_finite() { c } else { 0 };
            *r = a - c as f32 * scale;
            c
        })
    }

    /// Quantises `grad + residual` onto the shared `scale` grid, updating
    /// `residual` with the error feedback. Returns the codes in a
    /// [`CodeStore`] (tiered by `k`, like every other store).
    ///
    /// A `scale` of `0.0` produces all-zero codes and banks the entire
    /// input into the residual.
    ///
    /// # Panics
    ///
    /// Debug-asserts `grad.len() == residual.len()`.
    pub fn encode(&self, grad: &[f32], residual: &mut [f32], scale: f32) -> CodeStore {
        let half = 1i64 << (self.bits.get() - 1);
        // Each code goes straight into the tier as it is produced.
        let raw = self
            .codes(grad, residual, scale)
            .map(|c| i64::from(c) + half);
        CodeStore::from_code_iter(raw, self.bits)
    }

    /// Dequantises signed codes back to gradient values: `g = c · scale`.
    pub fn decode(&self, store: &CodeStore, scale: f32) -> Vec<f32> {
        let half = 1i64 << (self.bits.get() - 1);
        let mut out = vec![0.0f32; store.len()];
        // A signed `k ≤ 32`-bit code is an `i32`: converting through it
        // gives the same float as from `i64`, in a loop that vectorises.
        store.for_each(0..store.len(), |i, q| {
            out[i] = (q - half) as i32 as f32 * scale
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedCodes;
    use apt_tensor::rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    /// The signed codes a store produced by `encode` holds.
    fn signed(store: &CodeStore) -> Vec<i64> {
        let half = 1i64 << (store.bits().get() - 1);
        store.to_vec().into_iter().map(|q| q - half).collect()
    }

    /// The rule as it was first written — libm's `roundf`, then the clamp —
    /// which the kernel must reproduce bit for bit: `(code, new residual)`.
    fn reference(g: f32, r: f32, scale: f32, m: i64) -> (i64, f32) {
        let a = g + r;
        let c = if scale > 0.0 && a.is_finite() {
            ((a / scale).round() as i64).clamp(-m, m)
        } else {
            0
        };
        (c, a - c as f32 * scale)
    }

    /// Codes and residual bits of the kernel against [`reference`], at
    /// every exchange bitwidth.
    fn assert_matches_reference(grad: &[f32], residual: &[f32], scale: f32) {
        for k in 2..=31u32 {
            let codec = GradCodec::new(b(k));
            let mut res = residual.to_vec();
            let codes: Vec<i32> = codec.codes(grad, &mut res, scale).collect();
            for (i, (&g, &r)) in grad.iter().zip(residual).enumerate() {
                let (c, r_out) = reference(g, r, scale, codec.max_mag());
                assert_eq!(
                    (i64::from(codes[i]), res[i].to_bits()),
                    (c, r_out.to_bits()),
                    "k={k} g={g:e} r={r:e} scale={scale:e}"
                );
            }
        }
    }

    #[test]
    fn rounding_matches_libm_on_the_adversarial_set() {
        // At scale 1 and residual 0 the quotient *is* the gradient: every
        // tie, every neighbour of a tie, the first integers f32 cannot
        // step by a half, and both infinities' worth of overflow.
        let mut xs = vec![0.0f32, 0.5, 0.49999997, 0.50000006, 1.5, 2.5, 16_777_216.0];
        for n in [
            1u32,
            2,
            3,
            7,
            8,
            1000,
            65_535,
            1 << 20,
            (1 << 22) + 1,
            (1 << 23) - 1,
        ] {
            let tie = n as f32 + 0.5;
            xs.extend([
                f32::from_bits(tie.to_bits() - 1),
                tie,
                f32::from_bits(tie.to_bits() + 1),
            ]);
        }
        xs.extend([
            8_388_608.0,
            8_388_609.0,
            3.0e9,
            f32::MAX,
            f32::MIN_POSITIVE,
            1e-45,
        ]);
        xs.extend([f32::INFINITY, f32::NAN]);
        let grad: Vec<f32> = xs.iter().flat_map(|&x| [x, -x]).collect();
        let zeros = vec![0.0f32; grad.len()];
        assert_matches_reference(&grad, &zeros, 1.0);
        // A subnormal scale: quotients overflow to ±∞ and must clamp.
        assert_matches_reference(&grad, &zeros, 1e-42);
        assert_matches_reference(&grad, &zeros, f32::MIN_POSITIVE);
        // Degenerate scales bank everything.
        for scale in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            assert_matches_reference(&grad, &zeros, scale);
        }
    }

    #[test]
    fn zero_scale_banks_everything_into_residual() {
        let codec = GradCodec::new(b(4));
        let grad = [0.5f32, -0.25, 1.0];
        let mut residual = vec![0.0f32; 3];
        let store = codec.encode(&grad, &mut residual, 0.0);
        assert_eq!(signed(&store), vec![0, 0, 0]);
        assert_eq!(residual, grad);
    }

    #[test]
    fn error_feedback_conserves_mass() {
        // g + r_in == c·s + r_out exactly (all ops are f32 arithmetic on
        // both sides of the identity).
        let codec = GradCodec::new(b(3));
        let mut r = rng::seeded(5);
        let grad: Vec<f32> = (0..64).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let mut residual: Vec<f32> = (0..64).map(|_| r.gen_range(-0.1f32..0.1)).collect();
        let before: Vec<f32> = grad.iter().zip(&residual).map(|(g, r)| g + r).collect();
        let scale = codec.scale(1.1);
        let store = codec.encode(&grad, &mut residual, scale);
        let decoded = codec.decode(&store, scale);
        for ((a, d), res) in before.iter().zip(&decoded).zip(&residual) {
            assert_eq!(*a, d + res, "identity must hold bitwise in f32");
        }
    }

    #[test]
    fn scale_handles_degenerate_gmax() {
        let codec = GradCodec::new(b(8));
        assert_eq!(codec.scale(0.0), 0.0);
        assert_eq!(codec.scale(-1.0), 0.0);
        assert_eq!(codec.scale(f32::NAN), 0.0);
        assert_eq!(codec.scale(f32::INFINITY), 0.0);
        assert_eq!(codec.scale(127.0), 1.0);
    }

    #[test]
    fn sum_bits_covers_world_sums() {
        let codec = GradCodec::new(b(4));
        assert_eq!(codec.sum_bits(1).unwrap().get(), 4);
        assert_eq!(codec.sum_bits(2).unwrap().get(), 5);
        assert_eq!(codec.sum_bits(3).unwrap().get(), 6);
        assert_eq!(codec.sum_bits(4).unwrap().get(), 6);
        assert_eq!(codec.sum_bits(8).unwrap().get(), 7);
        // N·m fits the sum width's symmetric range.
        for world in 1..=8usize {
            let ks = codec.sum_bits(world).unwrap();
            let bound = world as i64 * codec.max_mag();
            let half = 1i64 << (ks.get() - 1);
            assert!(bound < half, "world={world}");
        }
        // 16-bit grads for 65536 ranks would need 32 bits: still legal.
        assert!(GradCodec::new(b(16)).sum_bits(1 << 16).is_ok());
        assert!(GradCodec::new(b(32)).sum_bits(2).is_err());
    }

    #[test]
    fn saturating_grads_clamp_symmetrically() {
        let codec = GradCodec::new(b(2)); // m = 1
        let grad = [10.0f32, -10.0];
        let mut residual = vec![0.0f32; 2];
        let store = codec.encode(&grad, &mut residual, codec.scale(1.0));
        assert_eq!(signed(&store), vec![1, -1]);
        // The clamped mass is all in the residual.
        assert_eq!(residual, vec![9.0, -9.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any f32 gradient, residual and scale — every bit pattern, NaNs
        /// and subnormals included: codes and residual bits as libm's.
        #[test]
        fn rounding_matches_libm_on_random_bits(
            bits in prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 1..64),
            scale_bits in 0u32..=u32::MAX,
            exponent in -30i32..30,
        ) {
            let grad: Vec<f32> = bits.iter().map(|&(g, _)| f32::from_bits(g)).collect();
            let residual: Vec<f32> = bits.iter().map(|&(_, r)| f32::from_bits(r)).collect();
            assert_matches_reference(&grad, &residual, f32::from_bits(scale_bits));
            // Random bits are mostly astronomically large or small; also
            // draw quotients that land among the codes.
            let near: Vec<f32> = grad.iter().map(|g| (g % 4096.0) * 0.37).collect();
            assert_matches_reference(&near, &vec![0.0; near.len()], 2f32.powi(exponent % 8));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Roundtrip across every exchange bitwidth: the canonical wire
        /// words of a store decode to the exact signed codes it holds.
        #[test]
        fn wire_roundtrip_across_bitwidths(
            seed in 0u64..500,
            k in 2u32..=16,
            n in 1usize..200,
        ) {
            let codec = GradCodec::new(b(k));
            let mut r = rng::seeded(seed);
            let grad: Vec<f32> = (0..n).map(|_| r.gen_range(-2.0f32..2.0)).collect();
            let gmax = grad.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = codec.scale(gmax);
            let mut residual = vec![0.0f32; n];
            let store = codec.encode(&grad, &mut residual, scale);
            let codes = signed(&store);
            let mut wire = Vec::new();
            store.for_each_packed_word(|w| wire.push(w));
            // Physical wire width is the packed k-bit footprint.
            prop_assert_eq!(wire.len(), (n * k as usize).div_ceil(64));
            let mut back = Vec::new();
            PackedCodes::read_words(&wire, n, b(k), |_, c| back.push(i64::from(c))).unwrap();
            prop_assert_eq!(&back, &codes);
            // Every code obeys the symmetric bound.
            let m = codec.max_mag();
            prop_assert!(codes.iter().all(|&c| -m <= c && c <= m));
        }

        /// Decode of the integer sum equals the mean gradient every rank
        /// applies: integer accumulation introduces no error beyond the
        /// per-rank quantisation already banked in residuals.
        #[test]
        fn integer_sum_is_exact(
            seed in 0u64..200,
            k in 2u32..=8,
            world in 1usize..5,
        ) {
            let codec = GradCodec::new(b(k));
            let n = 37usize;
            let mut r = rng::seeded(seed);
            let mut sum = vec![0i32; n];
            for _ in 0..world {
                let grad: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                let mut residual = vec![0.0f32; n];
                let codes = codec.codes(&grad, &mut residual, codec.scale(1.0));
                for (s, c) in sum.iter_mut().zip(codes) {
                    *s += c;
                }
            }
            let ks = codec.sum_bits(world).unwrap();
            // The sum fits the widened range and survives its own wire trip.
            let mut wire = Vec::new();
            PackedCodes::append_words(&sum, ks, &mut wire).unwrap();
            let mut back = vec![0i32; n];
            PackedCodes::read_words(&wire, n, ks, |i, c| back[i] = c).unwrap();
            prop_assert_eq!(back, sum);
        }
    }
}
