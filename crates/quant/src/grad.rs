//! `k`-bit gradient codec for distributed exchange (RCT-style quantised
//! communication).
//!
//! Data-parallel ranks cannot afford to ship fp32 gradients: a replica
//! exchange costs `32N` bits per step per peer. This module encodes a
//! gradient tensor as **symmetric `k`-bit signed codes on a shared scale**,
//! stored in the same [`CodeStore`] tiers the weights use and serialised
//! through the canonical [`PackedCodes`] words, so `k = 4` traffic really
//! is one eighth of fp32 on the wire.
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

use crate::{Bitwidth, CodeStore, PackedCodes};

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
        debug_assert_eq!(grad.len(), residual.len());
        let m = self.max_mag();
        let half = 1i64 << (self.bits.get() - 1);
        // Each code goes straight into the tier as it is produced.
        let raw = grad.iter().zip(residual.iter_mut()).map(|(&g, r)| {
            let a = g + *r;
            let c = if scale > 0.0 && a.is_finite() {
                let q = (a / scale).round() as i64;
                q.clamp(-m, m)
            } else {
                0
            };
            *r = a - c as f32 * scale;
            c + half
        });
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

    /// Signed codes of a store produced by [`encode`](GradCodec::encode) —
    /// the integer-domain values peers accumulate.
    pub fn signed_codes(&self, store: &CodeStore) -> Vec<i64> {
        let half = 1i64 << (self.bits.get() - 1);
        let mut out = vec![0i64; store.len()];
        store.for_each(0..store.len(), |i, q| out[i] = q - half);
        out
    }

    /// Serialises a store to its canonical wire words (tier-independent
    /// [`PackedCodes`] data words).
    pub fn to_wire(&self, store: &CodeStore) -> Vec<u64> {
        let mut words = Vec::with_capacity((store.len() * self.bits.get() as usize).div_ceil(64));
        store.for_each_packed_word(|w| words.push(w));
        words
    }

    /// Deserialises wire words back into signed codes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError::CorruptStore`] on a word count / padding
    /// mismatch.
    pub fn from_wire(&self, words: Vec<u64>, len: usize) -> crate::Result<Vec<i64>> {
        Ok(PackedCodes::from_data_words(words, len, self.bits)?.to_signed_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn zero_scale_banks_everything_into_residual() {
        let codec = GradCodec::new(b(4));
        let grad = [0.5f32, -0.25, 1.0];
        let mut residual = vec![0.0f32; 3];
        let store = codec.encode(&grad, &mut residual, 0.0);
        assert_eq!(codec.signed_codes(&store), vec![0, 0, 0]);
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
        assert_eq!(codec.signed_codes(&store), vec![1, -1]);
        // The clamped mass is all in the residual.
        assert_eq!(residual, vec![9.0, -9.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Roundtrip across every exchange bitwidth: wire words decode to
        /// the exact signed codes that were encoded.
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
            let codes = codec.signed_codes(&store);
            let wire = codec.to_wire(&store);
            // Physical wire width is the packed k-bit footprint.
            prop_assert_eq!(wire.len(), (n * k as usize).div_ceil(64));
            prop_assert_eq!(&codec.from_wire(wire, n).unwrap(), &codes);
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
            let mut sum = vec![0i64; n];
            let mut per_rank = Vec::new();
            for _ in 0..world {
                let grad: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                let mut residual = vec![0.0f32; n];
                let store = codec.encode(&grad, &mut residual, codec.scale(1.0));
                let codes = codec.signed_codes(&store);
                for (s, c) in sum.iter_mut().zip(&codes) {
                    *s += c;
                }
                per_rank.push(codes);
            }
            let ks = codec.sum_bits(world).unwrap();
            // The sum fits the widened range and survives its own wire trip.
            let packed = PackedCodes::from_signed(&sum, ks).unwrap();
            let back = PackedCodes::from_data_words(
                packed.data_words().to_vec(), n, ks).unwrap();
            prop_assert_eq!(back.to_signed_vec(), sum);
        }
    }
}
