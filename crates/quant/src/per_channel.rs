//! Per-output-channel quantisation — the standard refinement of the
//! paper's per-tensor scheme (Krishnamoorthi \[13\] §3.1 recommends it for
//! conv weights).
//!
//! The paper calibrates one `(S, Z)` per tensor, so one outlier channel
//! inflates `ε` for every channel and pushes the whole layer toward
//! underflow. Calibrating each output channel (axis-0 slice) separately
//! gives every channel its own `ε_c`, with Eq. 3/Eq. 4 applied per channel.
//! The `ablations` binary compares both calibrations.

use crate::tensor_q::{eq3_sweep, Eq3Sweep};
use crate::{AffineQuantizer, Bitwidth, CodeStore, QuantError, RoundingMode, UpdateStats};
use apt_tensor::Tensor;
use rand::rngs::StdRng;

/// A parameter tensor quantised with one affine quantiser per output
/// channel (axis-0 slice). Like [`crate::QuantizedTensor`], the integer
/// codes are the source of truth — no fp32 copy exists — and they live in
/// a physical [`CodeStore`] (the precision is uniform across channels, so
/// one store covers the whole tensor).
#[derive(Debug, Clone)]
pub struct PerChannelQuantized {
    store: CodeStore,
    dims: Vec<usize>,
    quantizers: Vec<AffineQuantizer>,
}

impl PerChannelQuantized {
    /// Quantises a tensor (rank ≥ 1) with per-axis-0-channel calibration.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for empty/non-finite input.
    pub fn from_tensor(t: &Tensor, bits: Bitwidth) -> crate::Result<Self> {
        if t.is_empty() || t.rank() == 0 {
            return Err(QuantError::NonFiniteRange {
                min: f32::NAN,
                max: f32::NAN,
            });
        }
        let channels = t.dims()[0];
        let stride = t.len() / channels;
        let quantizers = t
            .data()
            .chunks(stride)
            .map(|slice| Self::calibrate(slice, bits))
            .collect::<crate::Result<Vec<_>>>()?;
        // Each value goes through its channel's quantiser straight into
        // the tier.
        let codes = (t.data().chunks(stride).zip(&quantizers))
            .flat_map(|(slice, q)| slice.iter().map(|&v| q.quantize_value(v)));
        Ok(PerChannelQuantized {
            store: CodeStore::from_code_iter(codes, bits),
            dims: t.dims().to_vec(),
            quantizers,
        })
    }

    /// The quantiser covering one channel's `[min, max]`.
    fn calibrate(channel: &[f32], bits: Bitwidth) -> crate::Result<AffineQuantizer> {
        let (min, max) = channel
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        AffineQuantizer::from_range(min, max, bits)
    }

    /// Materialises the float view, straight from the tier.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = vec![0.0f32; self.store.len()];
        self.for_each_value(|i, w| data[i] = w);
        Tensor::from_vec(data, &self.dims).expect("codes/dims invariant")
    }

    /// Calls `f(i, w)` with the float value of every element under its
    /// channel's quantiser, in order (see
    /// [`crate::QuantizedTensor::for_each_value`]).
    #[inline]
    pub fn for_each_value(&self, mut f: impl FnMut(usize, f32)) {
        let stride = self.stride();
        self.store
            .for_each(|i, q| f(i, self.quantizers[i / stride].dequantize_value(q)));
    }

    fn stride(&self) -> usize {
        self.store.len() / self.quantizers.len()
    }

    /// Number of channels (axis-0 size).
    pub fn channels(&self) -> usize {
        self.quantizers.len()
    }

    /// Shape of the parameter tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the tensor holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Current precision (uniform across channels).
    pub fn bits(&self) -> Bitwidth {
        self.quantizers[0].bits()
    }

    /// Per-channel quantisation steps `ε_c`.
    pub fn channel_eps(&self) -> Vec<f32> {
        self.quantizers.iter().map(|q| q.eps()).collect()
    }

    /// Mean `ε` across channels (scalar summary for reporting).
    pub fn mean_eps(&self) -> f32 {
        let s: f64 = self.quantizers.iter().map(|q| q.eps() as f64).sum();
        (s / self.quantizers.len() as f64) as f32
    }

    /// Training-memory footprint in bits: `N·k` codes plus one `(S, Z)`
    /// pair (96 bits) per channel of calibration metadata — the idealised
    /// model; see [`resident_bytes`](Self::resident_bytes) for the
    /// physical footprint.
    pub fn memory_bits(&self) -> u64 {
        self.store.len() as u64 * u64::from(self.bits().get()) + self.quantizers.len() as u64 * 96
    }

    /// Physical bytes resident for this parameter: the code store plus one
    /// quantiser struct per channel.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
            + (self.quantizers.len() * std::mem::size_of::<AffineQuantizer>()) as u64
    }

    /// Eq. 4 with per-channel resolution:
    /// `Gavg = mean_j |g_j / ε_{channel(j)}|`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad` differs in shape.
    pub fn gavg(&self, grad: &Tensor) -> crate::Result<f64> {
        if grad.dims() != self.dims.as_slice() {
            return Err(QuantError::ShapeMismatch {
                op: "gavg",
                lhs: self.dims.clone(),
                rhs: grad.dims().to_vec(),
            });
        }
        if grad.is_empty() {
            return Ok(0.0);
        }
        let stride = self.stride();
        let sum: f64 = grad
            .data()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g as f64).abs() / self.quantizers[i / stride].eps() as f64)
            .sum();
        Ok(sum / grad.len() as f64)
    }

    /// Re-quantises at a new uniform precision, recalibrating each channel
    /// (the codes re-pack into the tier matching the new bitwidth).
    ///
    /// # Errors
    ///
    /// Propagates calibration errors.
    pub fn set_bits(&mut self, bits: Bitwidth) -> crate::Result<()> {
        let float = self.to_tensor();
        *self = PerChannelQuantized::from_tensor(&float, bits)?;
        Ok(())
    }

    /// The Eq. 3 quantised SGD step with per-channel `ε` (see
    /// [`crate::QuantizedTensor::sgd_update`] for semantics; range
    /// expansion recalibrates only the affected channels). In-range
    /// results go straight into the packed store; out-of-range codes are
    /// spilled aside and the channel-local recalibration runs on the exact
    /// updated values, so the result does not depend on the storage tier.
    ///
    /// # Errors
    ///
    /// Returns shape/finiteness errors.
    pub fn sgd_update(
        &mut self,
        grad: &Tensor,
        lr: f32,
        mode: RoundingMode,
        rng: &mut StdRng,
    ) -> crate::Result<UpdateStats> {
        if grad.dims() != self.dims.as_slice() {
            return Err(QuantError::ShapeMismatch {
                op: "sgd_update",
                lhs: self.dims.clone(),
                rhs: grad.dims().to_vec(),
            });
        }
        if !lr.is_finite() || grad.has_non_finite() {
            return Err(QuantError::NonFiniteOperand { op: "sgd_update" });
        }
        let stride = self.stride();
        let bits = self.bits();
        let max_code = bits.num_steps() as i64;
        let quantizers = &self.quantizers;
        let eps_at = |i: usize| f64::from(quantizers[i / stride].eps());
        let Eq3Sweep {
            underflowed,
            mut on_rails,
            spills,
        } = eq3_sweep(&mut self.store, grad.data(), lr, eps_at, mode, rng);
        if !spills.is_empty() {
            // Recalibrate only the channels whose values left their range,
            // from the exact updated values: the channel's stored codes
            // with the spilled (out-of-grid) ones patched in. The rare
            // path: it touches single channels, so it goes through
            // `get`/`set`.
            let mut at = 0;
            while at < spills.len() {
                let ch = spills[at].0 / stride;
                let base = ch * stride;
                let old = self.quantizers[ch];
                let mut float: Vec<f32> = (base..base + stride)
                    .map(|i| old.dequantize_value(self.store.get(i)))
                    .collect();
                while let Some(&(i, c)) = spills.get(at).filter(|s| s.0 / stride == ch) {
                    float[i - base] = old.dequantize_value(c);
                    at += 1;
                }
                let new_q = Self::calibrate(&float, bits)?;
                for (j, &v) in float.iter().enumerate() {
                    self.store.set(base + j, new_q.quantize_value(v));
                }
                self.quantizers[ch] = new_q;
            }
            on_rails = self.store.count_rails(max_code);
        }
        Ok(UpdateStats {
            underflowed,
            expanded: spills.len(),
            saturated: on_rails,
            total: self.store.len(),
        })
    }

    /// Fraction of codes sitting on a grid rail (0 or `2^k − 1`), pooled
    /// across channels. See [`crate::QuantizedTensor::saturation_ratio`] —
    /// the healthy floor here is about `2/stride` *per channel*, since every
    /// channel's calibration pins its own min/max to the rails.
    pub fn saturation_ratio(&self) -> f64 {
        if self.store.is_empty() {
            return 0.0;
        }
        let max_code = self.bits().num_steps() as i64;
        self.store.count_rails(max_code) as f64 / self.store.len() as f64
    }

    /// Flips one bit of one stored code within the low `k` bits (SEU
    /// model); the flip lands on the physical storage and the result
    /// always stays on the channel's grid. Returns the new code. See
    /// [`crate::QuantizedTensor::flip_code_bit`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if `elem` is out of bounds.
    pub fn flip_code_bit(&mut self, elem: usize, bit: u32) -> crate::Result<i64> {
        if elem >= self.store.len() {
            return Err(QuantError::ShapeMismatch {
                op: "flip_code_bit",
                lhs: vec![elem],
                rhs: vec![self.store.len()],
            });
        }
        let k = self.bits().get();
        Ok(self.store.flip_bit(elem, bit % k))
    }

    /// Drives every `round(1/fraction)`-th code to a grid rail (fault
    /// injection). Returns the number of codes forced. See
    /// [`crate::QuantizedTensor::saturate`].
    pub fn saturate(&mut self, fraction: f64, high: bool) -> usize {
        if !fraction.is_finite() || fraction <= 0.0 || self.store.is_empty() {
            return 0;
        }
        let stride = (1.0 / fraction.min(1.0)).round().max(1.0) as usize;
        let rail = if high {
            self.bits().num_steps() as i64
        } else {
            0
        };
        let mut forced = 0;
        for i in (0..self.store.len()).step_by(stride) {
            self.store.set(i, rail);
            forced += 1;
        }
        forced
    }

    /// Rebuilds from checkpointed parts.
    ///
    /// # Errors
    ///
    /// Returns shape errors when lengths disagree, codes leave the grid,
    /// or the channels do not share one uniform bitwidth (the physical
    /// store packs at a single width).
    pub fn from_parts(
        codes: Vec<i64>,
        dims: Vec<usize>,
        quantizers: Vec<AffineQuantizer>,
    ) -> crate::Result<Self> {
        let volume: usize = dims.iter().product();
        if codes.len() != volume
            || dims.is_empty()
            || quantizers.len() != dims[0]
            || dims[0] == 0
            || !volume.is_multiple_of(dims[0])
            || quantizers.iter().any(|q| q.bits() != quantizers[0].bits())
        {
            return Err(QuantError::ShapeMismatch {
                op: "from_parts",
                lhs: vec![codes.len(), quantizers.len()],
                rhs: dims,
            });
        }
        let stride = volume / dims[0];
        for (i, &q) in codes.iter().enumerate() {
            let max_code = quantizers[i / stride].bits().num_steps() as i64;
            if !(0..=max_code).contains(&q) {
                return Err(QuantError::NonFiniteRange {
                    min: 0.0,
                    max: max_code as f32,
                });
            }
        }
        let bits = quantizers[0].bits();
        Ok(PerChannelQuantized {
            store: CodeStore::from_codes(&codes, bits),
            dims,
            quantizers,
        })
    }

    /// Materialises the raw codes (checkpoint saving, tests).
    pub fn codes(&self) -> Vec<i64> {
        self.store.to_vec()
    }

    /// The physical code container (integrity digests, serialisation,
    /// memory accounting).
    pub fn store(&self) -> &CodeStore {
        &self.store
    }

    /// The per-channel quantisers (checkpoint saving).
    pub fn quantizers(&self) -> &[AffineQuantizer] {
        &self.quantizers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn roundtrip_error_bounded_per_channel() {
        let t = normal(&[4, 16], 1.0, &mut seeded(1));
        let q = PerChannelQuantized::from_tensor(&t, b(8)).unwrap();
        assert_eq!(q.channels(), 4);
        let eps = q.channel_eps();
        let back = q.to_tensor();
        for (i, (a, bb)) in t.data().iter().zip(back.data()).enumerate() {
            assert!((a - bb).abs() <= eps[i / 16] / 2.0 + 1e-6);
        }
    }

    #[test]
    fn outlier_channel_does_not_inflate_other_channels_eps() {
        // Channel 0 has range 100×, channel 1 stays tight — the motivation
        // for per-channel calibration.
        let mut data = vec![0.0f32; 32];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 16 {
                (i as f32 - 8.0) * 10.0
            } else {
                (i as f32 - 24.0) * 0.1
            };
        }
        let t = Tensor::from_vec(data, &[2, 16]).unwrap();
        let pc = PerChannelQuantized::from_tensor(&t, b(8)).unwrap();
        let eps = pc.channel_eps();
        assert!(eps[0] > eps[1] * 50.0, "eps0={} eps1={}", eps[0], eps[1]);
        // Per-tensor calibration would give channel 1 the inflated ε.
        let pt = crate::QuantizedTensor::from_tensor(&t, b(8)).unwrap();
        assert!(pt.eps() > eps[1] * 50.0);
    }

    #[test]
    fn gavg_uses_per_channel_eps() {
        let t = Tensor::from_vec(vec![-10.0, 10.0, -0.1, 0.1], &[2, 2]).unwrap();
        let pc = PerChannelQuantized::from_tensor(&t, b(4)).unwrap();
        let grad = Tensor::from_vec(vec![0.01, 0.01, 0.01, 0.01], &[2, 2]).unwrap();
        let g = pc.gavg(&grad).unwrap();
        let eps = pc.channel_eps();
        let gm = f64::from(0.01f32);
        let expected = 0.5 * (gm / f64::from(eps[0])) + 0.5 * (gm / f64::from(eps[1]));
        assert!((g - expected).abs() < 1e-9, "g={g} expected={expected}");
        assert!(pc.gavg(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn underflow_depends_on_channel() {
        // A gradient that underflows the coarse channel but lands on the
        // fine one — per-tensor calibration would lose both.
        let t = Tensor::from_vec(vec![-10.0, 10.0, -0.1, 0.1], &[2, 2]).unwrap();
        let mut pc = PerChannelQuantized::from_tensor(&t, b(4)).unwrap();
        let eps = pc.channel_eps();
        let g_mag = eps[1] * 1.5; // > ε₁ but well below ε₀
        assert!(g_mag < eps[0] * 0.1, "g_mag={g_mag} eps0={}", eps[0]);
        let grad = Tensor::from_vec(vec![g_mag, g_mag, g_mag, g_mag], &[2, 2]).unwrap();
        let stats = pc
            .sgd_update(&grad, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert_eq!(
            stats.underflowed, 2,
            "coarse channel underflows, fine channel updates"
        );
    }

    #[test]
    fn set_bits_and_memory() {
        let t = normal(&[3, 8], 1.0, &mut seeded(2));
        let mut pc = PerChannelQuantized::from_tensor(&t, b(6)).unwrap();
        assert_eq!(pc.memory_bits(), 24 * 6 + 3 * 96);
        pc.set_bits(b(9)).unwrap();
        assert_eq!(pc.bits().get(), 9);
        assert_eq!(pc.memory_bits(), 24 * 9 + 3 * 96);
        assert!(pc.mean_eps() > 0.0);
    }

    #[test]
    fn resident_bytes_count_store_and_quantizers() {
        let t = normal(&[3, 8], 1.0, &mut seeded(2));
        let pc = PerChannelQuantized::from_tensor(&t, b(6)).unwrap();
        let meta = 3 * std::mem::size_of::<AffineQuantizer>() as u64;
        assert_eq!(pc.store().tier_name(), "i8");
        assert_eq!(pc.resident_bytes(), 24 + meta);
    }

    #[test]
    fn from_parts_roundtrip_and_validation() {
        let t = normal(&[2, 4], 1.0, &mut seeded(3));
        let pc = PerChannelQuantized::from_tensor(&t, b(5)).unwrap();
        let re = PerChannelQuantized::from_parts(
            pc.codes().to_vec(),
            pc.dims().to_vec(),
            pc.quantizers().to_vec(),
        )
        .unwrap();
        assert_eq!(re.to_tensor().data(), pc.to_tensor().data());
        assert!(
            PerChannelQuantized::from_parts(vec![0; 8], vec![3, 4], pc.quantizers().to_vec())
                .is_err()
        );
        // Mixed channel bitwidths cannot share one packed store.
        let mixed = vec![
            AffineQuantizer::from_range(-1.0, 1.0, b(5)).unwrap(),
            AffineQuantizer::from_range(-1.0, 1.0, b(6)).unwrap(),
        ];
        assert!(PerChannelQuantized::from_parts(vec![0; 8], vec![2, 4], mixed).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert!(PerChannelQuantized::from_tensor(&empty, b(8)).is_err());
        let scalar = Tensor::scalar(1.0);
        assert!(PerChannelQuantized::from_tensor(&scalar, b(8)).is_err());
        let t = normal(&[2, 4], 1.0, &mut seeded(4));
        let mut pc = PerChannelQuantized::from_tensor(&t, b(8)).unwrap();
        assert!(pc
            .sgd_update(
                &Tensor::zeros(&[3]),
                0.1,
                RoundingMode::Truncate,
                &mut seeded(0)
            )
            .is_err());
    }

    #[test]
    fn saturation_and_flip_mirror_per_tensor_semantics() {
        let t = normal(&[4, 16], 1.0, &mut seeded(5));
        let mut pc = PerChannelQuantized::from_tensor(&t, b(6)).unwrap();
        // Every channel pins its min/max, so the clean floor is 2/stride
        // pooled over channels.
        let clean = pc.saturation_ratio();
        assert!((8.0 / 64.0..0.35).contains(&clean), "clean ratio {clean}");
        let max_code = pc.bits().num_steps() as i64;
        for bit in 0..16u32 {
            let new = pc.flip_code_bit(bit as usize, bit).unwrap();
            assert!((0..=max_code).contains(&new));
        }
        assert!(pc.flip_code_bit(64, 0).is_err());
        let forced = pc.saturate(0.25, false);
        assert_eq!(forced, 16);
        assert!(pc.saturation_ratio() >= 0.25);
        assert!(pc.to_tensor().data().iter().all(|v| v.is_finite()));
        // Zero gradient update reports the rail population.
        let g = Tensor::zeros(&[4, 16]);
        let stats = pc
            .sgd_update(&g, 0.1, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert_eq!(stats.saturated, {
            let mc = pc.bits().num_steps() as i64;
            pc.codes().iter().filter(|&&q| q == 0 || q == mc).count()
        });
    }

    #[test]
    fn range_expansion_is_channel_local() {
        let t = Tensor::from_vec(vec![-1.0, 1.0, -1.0, 1.0], &[2, 2]).unwrap();
        let mut pc = PerChannelQuantized::from_tensor(&t, b(8)).unwrap();
        let eps_before = pc.channel_eps();
        // Push only channel 0 out of range.
        let grad = Tensor::from_vec(vec![-5.0, 0.0, 0.0, 0.0], &[2, 2]).unwrap();
        let stats = pc
            .sgd_update(&grad, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert!(stats.expanded > 0);
        let eps_after = pc.channel_eps();
        assert!(
            eps_after[0] > eps_before[0],
            "expanded channel recalibrates"
        );
        assert_eq!(eps_after[1], eps_before[1], "other channel untouched");
    }
}
