//! Property-based tests of the quantisation substrate — the invariants the
//! paper's Eqs. 2–3 rely on.

use apt_quant::{
    fake, AffineQuantizer, Bitwidth, CodeStore, PackedCodes, QuantizedTensor, RoundingMode,
};
use apt_tensor::{rng, Tensor};
use proptest::prelude::*;

fn bits_strategy() -> impl Strategy<Value = Bitwidth> {
    (2u32..=16).prop_map(|b| Bitwidth::new(b).unwrap())
}

/// Every supported storage width, including the packed-tier range.
fn all_bits_strategy() -> impl Strategy<Value = Bitwidth> {
    (2u32..=32).prop_map(|b| Bitwidth::new(b).unwrap())
}

/// Random signed codes on the `k`-bit two's-complement range, with both
/// rails forced in so extremes are always exercised.
fn signed_codes_strategy() -> impl Strategy<Value = (Bitwidth, Vec<i64>)> {
    (
        all_bits_strategy(),
        prop::collection::vec(0u64..u64::MAX, 2..192),
    )
        .prop_map(|(bits, raw)| {
            let half = 1i64 << (bits.get() - 1);
            let span = 2u64.pow(bits.get());
            let mut v: Vec<i64> = raw.iter().map(|&r| (r % span) as i64 - half).collect();
            v[0] = -half; // negative rail (sign bit set)
            v[1] = half - 1; // positive rail
            (bits, v)
        })
}

/// Random raw grid codes `q ∈ [0, 2^k − 1]` with both rails forced in.
fn grid_codes_strategy() -> impl Strategy<Value = (Bitwidth, Vec<i64>)> {
    (
        all_bits_strategy(),
        prop::collection::vec(0u64..u64::MAX, 2..192),
    )
        .prop_map(|(bits, raw)| {
            let max = bits.num_steps() as i64;
            let span = 2u64.pow(bits.get());
            let mut v: Vec<i64> = raw.iter().map(|&r| (r % span) as i64).collect();
            v[0] = 0;
            v[1] = max;
            (bits, v)
        })
}

fn values_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_error_bounded_by_half_eps(vals in values_strategy(), bits in bits_strategy()) {
        let t = Tensor::from_slice(&vals);
        let q = AffineQuantizer::from_tensor(&t, bits).unwrap();
        for &v in t.data() {
            let back = q.dequantize_value(q.quantize_value(v));
            // Half-step quantisation error plus f32 representation error
            // (which dominates for |v| ≫ ε).
            let tol = q.eps() / 2.0 + v.abs() * f32::EPSILON * 8.0 + 1e-7;
            prop_assert!(
                (back - v).abs() <= tol,
                "v={v} back={back} eps={}", q.eps()
            );
        }
    }

    #[test]
    fn eps_matches_eq2_with_zero_inclusion(
        lo in -50.0f32..50.0,
        span in 0.1f32..100.0,
        bits in bits_strategy(),
    ) {
        let (min, max) = (lo, lo + span);
        let q = AffineQuantizer::from_range(min, max, bits).unwrap();
        let widened_lo = min.min(0.0);
        let widened_hi = max.max(0.0);
        let expected = (widened_hi - widened_lo) / bits.num_steps() as f32;
        prop_assert!((q.eps() - expected.max(1e-12)).abs() <= expected * 1e-5 + 1e-12);
    }

    #[test]
    fn quantize_is_monotone(vals in values_strategy(), bits in bits_strategy()) {
        let t = Tensor::from_slice(&vals);
        let q = AffineQuantizer::from_tensor(&t, bits).unwrap();
        let mut sorted = vals.clone();
        sorted.sort_by(f32::total_cmp);
        for w in sorted.windows(2) {
            prop_assert!(q.quantize_value(w[0]) <= q.quantize_value(w[1]));
        }
    }

    #[test]
    fn more_bits_never_increase_eps(vals in values_strategy(), k in 2u32..16) {
        let t = Tensor::from_slice(&vals);
        let lo = AffineQuantizer::from_tensor(&t, Bitwidth::new(k).unwrap()).unwrap();
        let hi = AffineQuantizer::from_tensor(&t, Bitwidth::new(k + 1).unwrap()).unwrap();
        prop_assert!(hi.eps() <= lo.eps() + 1e-12);
    }

    #[test]
    fn sub_eps_updates_underflow_entirely(
        seed in 0u64..1000,
        bits in bits_strategy(),
        frac in 0.01f32..0.99,
    ) {
        let w = rng::normal(&[32], 1.0, &mut rng::seeded(seed));
        let mut q = QuantizedTensor::from_tensor(&w, bits).unwrap();
        let before = q.to_tensor();
        let g = Tensor::full(&[32], q.eps() * frac);
        let stats = q
            .sgd_update(&g, 1.0, RoundingMode::Truncate, &mut rng::seeded(0))
            .unwrap();
        prop_assert_eq!(stats.underflowed, 32);
        let after = q.to_tensor();
        prop_assert_eq!(after.data(), before.data());
    }

    #[test]
    fn super_eps_updates_apply(seed in 0u64..1000, steps in 1i32..5) {
        let w = rng::normal(&[32], 1.0, &mut rng::seeded(seed));
        let mut q = QuantizedTensor::from_tensor(&w, Bitwidth::new(8).unwrap()).unwrap();
        let g = Tensor::full(&[32], q.eps() * (steps as f32 + 0.5));
        let stats = q
            .sgd_update(&g, 1.0, RoundingMode::Truncate, &mut rng::seeded(0))
            .unwrap();
        prop_assert_eq!(stats.underflowed, 0);
    }

    #[test]
    fn set_bits_preserves_values_within_coarser_eps(
        seed in 0u64..1000,
        from in 4u32..12,
        to in 4u32..12,
    ) {
        let w = rng::normal(&[64], 1.0, &mut rng::seeded(seed));
        let mut q = QuantizedTensor::from_tensor(&w, Bitwidth::new(from).unwrap()).unwrap();
        let before = q.to_tensor();
        let coarse_eps = q.eps().max({
            let mut tmp = q.clone();
            tmp.set_bits(Bitwidth::new(to).unwrap()).unwrap();
            tmp.eps()
        });
        q.set_bits(Bitwidth::new(to).unwrap()).unwrap();
        for (a, b) in before.data().iter().zip(q.to_tensor().data()) {
            prop_assert!((a - b).abs() <= coarse_eps + 1e-6);
        }
    }

    #[test]
    fn memory_bits_is_len_times_k(len in 1usize..256, bits in bits_strategy()) {
        let w = rng::normal(&[len], 1.0, &mut rng::seeded(1));
        let q = QuantizedTensor::from_tensor(&w, bits).unwrap();
        prop_assert_eq!(q.memory_bits(), (len as u64) * u64::from(bits.get()));
    }

    #[test]
    fn fake_quantize_level_count_bounded(seed in 0u64..500, k in 2u32..6) {
        let t = rng::normal(&[512], 1.0, &mut rng::seeded(seed));
        let fq = fake::fake_quantize(&t, Bitwidth::new(k).unwrap()).unwrap();
        let mut levels: Vec<i64> = fq.data().iter().map(|&x| (x * 1e5) as i64).collect();
        levels.sort_unstable();
        levels.dedup();
        prop_assert!(levels.len() as u64 <= 1u64 << k);
    }

    #[test]
    fn ternarize_at_most_three_levels_and_sign_preserving(seed in 0u64..500) {
        let t = rng::normal(&[256], 1.0, &mut rng::seeded(seed));
        let tt = fake::ternarize(&t);
        let mut levels: Vec<i64> = tt.data().iter().map(|&x| (x * 1e5) as i64).collect();
        levels.sort_unstable();
        levels.dedup();
        prop_assert!(levels.len() <= 3);
        for (&orig, &tern) in t.data().iter().zip(tt.data()) {
            prop_assert!(tern == 0.0 || (tern > 0.0) == (orig > 0.0));
        }
    }

    #[test]
    fn quantize_dequantize_is_always_finite(vals in values_strategy(), bits in bits_strategy()) {
        // Soft-error guard invariant: no calibration, round-trip, update, or
        // bit flip may ever manufacture a NaN/Inf out of finite input.
        let t = Tensor::from_slice(&vals);
        let mut q = QuantizedTensor::from_tensor(&t, bits).unwrap();
        prop_assert!(q.to_tensor().data().iter().all(|v| v.is_finite()));
        let g = Tensor::full(&[vals.len()], q.eps() * 3.0);
        q.sgd_update(&g, 1.0, RoundingMode::Nearest, &mut rng::seeded(0)).unwrap();
        prop_assert!(q.to_tensor().data().iter().all(|v| v.is_finite()));
        for bit in 0..8u32 {
            q.flip_code_bit((bit as usize) % vals.len(), bit).unwrap();
        }
        q.saturate(0.5, true);
        prop_assert!(q.to_tensor().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn per_channel_roundtrip_is_always_finite(
        seed in 0u64..500,
        ch in 1usize..6,
        stride in 1usize..32,
        bits in bits_strategy(),
    ) {
        let t = rng::normal(&[ch, stride], 2.0, &mut rng::seeded(seed));
        let mut pc = QuantizedTensor::from_tensor_per_channel(&t, bits).unwrap();
        prop_assert!(pc.to_tensor().data().iter().all(|v| v.is_finite()));
        prop_assert!(pc.saturation_ratio() >= 0.0 && pc.saturation_ratio() <= 1.0);
        pc.saturate(0.3, false);
        pc.flip_code_bit(0, 5).unwrap();
        prop_assert!(pc.to_tensor().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn per_tensor_is_the_one_group_case_of_per_channel(
        seed in 0u64..10_000,
        n in 1usize..48,
        k in (0usize..4).prop_map(|tier| [3u32, 6, 12, 20][tier]),
        updates in 1usize..6,
        up in any::<bool>(),
    ) {
        // A `[1, n]` tensor has one channel: calibrated either way it must
        // hold the same codes on the same grid, and keep doing so through
        // Eq. 3 (in-range steps and range expansion alike) and Alg. 1's
        // ±1-bit moves — in every storage tier and rounding mode.
        use rand::Rng;
        let same = |pt: &QuantizedTensor, pc: &QuantizedTensor| {
            prop_assert_eq!(pt.store().to_vec(), pc.store().to_vec());
            prop_assert_eq!(pt.quantizers(), pc.quantizers());
            prop_assert_eq!(pt.eps().to_bits(), pc.eps().to_bits());
            prop_assert_eq!(pt.resident_bytes(), pc.resident_bytes());
            // What still tells them apart: the form, and the metadata term
            // of the accounted footprint.
            prop_assert!(!pt.is_per_channel() && pc.is_per_channel());
            prop_assert_eq!(pt.memory_bits() + 96, pc.memory_bits());
            Ok(())
        };
        let bits = Bitwidth::new(k).unwrap();
        let w = rng::normal(&[1, n], 1.0, &mut rng::seeded(seed));
        for mode in [RoundingMode::Truncate, RoundingMode::Nearest, RoundingMode::Stochastic] {
            let mut pt = QuantizedTensor::from_tensor(&w, bits).unwrap();
            let mut pc = QuantizedTensor::from_tensor_per_channel(&w, bits).unwrap();
            same(&pt, &pc)?;
            let (mut rng_pt, mut rng_pc) = (rng::seeded(seed ^ 7), rng::seeded(seed ^ 7));
            let mut grads = rng::seeded(seed ^ 11);
            let mut expanded = 0;
            for step in 0..updates {
                let mut g = rng::normal(&[1, n], 3.0 * pt.eps(), &mut grads);
                if step == updates / 2 {
                    // Twice the whole range: leaves the grid whatever the code.
                    g.data_mut()[seed as usize % n] = -2.0 * pt.eps() * bits.num_steps() as f32;
                }
                let stats_pt = pt.sgd_update(&g, 1.0, mode, &mut rng_pt).unwrap();
                let stats_pc = pc.sgd_update(&g, 1.0, mode, &mut rng_pc).unwrap();
                prop_assert_eq!(stats_pt, stats_pc);
                prop_assert_eq!(pt.gavg(&g).unwrap().to_bits(), pc.gavg(&g).unwrap().to_bits());
                expanded += stats_pt.expanded;
                same(&pt, &pc)?;
            }
            prop_assert!(expanded > 0, "the sequence must include a range expansion");
            prop_assert_eq!(rng_pt.gen::<u64>(), rng_pc.gen::<u64>(), "rng position");
            let moved = Bitwidth::new(if up { k + 1 } else { k - 1 }).unwrap();
            pt.set_bits(moved).unwrap();
            pc.set_bits(moved).unwrap();
            same(&pt, &pc)?;
        }
    }

    #[test]
    fn packed_roundtrip_all_bitwidths(case in signed_codes_strategy()) {
        // Pack/unpack is lossless for every k in [2, 32] over random codes
        // including negatives and both rails, and the serialised words
        // round-trip through the checkpoint-v3 validation path.
        let (bits, signed) = case;
        let p = PackedCodes::from_signed(&signed, bits).unwrap();
        prop_assert_eq!(p.to_signed_vec(), signed.clone());
        for (i, &c) in signed.iter().enumerate() {
            prop_assert_eq!(p.get(i), c);
        }
        let re = PackedCodes::from_data_words(
            p.data_words().to_vec(), signed.len(), bits).unwrap();
        prop_assert_eq!(re, p);
    }

    #[test]
    fn code_store_holds_exactly_the_codes_it_was_built_from(case in grid_codes_strategy()) {
        // The reference is the generated code vector: every tier returns
        // it unchanged, counts its rails, and serialises to the words a
        // direct packing of the centred codes gives.
        let (bits, codes) = case;
        let store = CodeStore::from_codes(&codes, bits);
        prop_assert_eq!(store.to_vec(), codes.clone());
        for (i, &q) in codes.iter().enumerate() {
            prop_assert_eq!(store.get(i), q);
        }
        let max = bits.num_steps() as i64;
        let rails = codes.iter().filter(|&&q| q == 0 || q == max).count();
        prop_assert_eq!(store.count_rails(max), rails);
        let half = 1i64 << (bits.get() - 1);
        let centered: Vec<i64> = codes.iter().map(|&q| q - half).collect();
        prop_assert_eq!(store.to_packed(), PackedCodes::from_signed(&centered, bits).unwrap());
        // The physical footprint never exceeds one i64 per code.
        prop_assert!(store.resident_bytes() <= 8 * codes.len() as u64);
    }

    #[test]
    fn flip_code_bit_matches_seu_semantics(
        case in grid_codes_strategy(),
        flips in prop::collection::vec((0usize..192usize, 0u32..64u32), 1..32),
    ) {
        // The documented SEU model — `q ^= 1 << (bit % k)` — holds on the
        // packed physical storage, element by element, flip by flip.
        let (bits, codes) = case;
        let k = bits.get();
        let mut store = CodeStore::from_codes(&codes, bits);
        let mut q = QuantizedTensor::from_parts(
            codes.clone(),
            vec![codes.len()],
            AffineQuantizer::from_range(-1.0, 1.0, bits).unwrap(),
        ).unwrap();
        let mut expect = codes.clone();
        for &(e, bit) in &flips {
            let elem = e % codes.len();
            let new_store = store.flip_bit(elem, bit % k);
            let new_tensor = q.flip_code_bit(elem, bit).unwrap();
            expect[elem] ^= 1i64 << (bit % k);
            prop_assert_eq!(new_store, expect[elem]);
            prop_assert_eq!(new_tensor, expect[elem]);
            prop_assert!((0..=bits.num_steps() as i64).contains(&new_store));
        }
        prop_assert_eq!(store.to_vec(), expect);
    }

    #[test]
    fn stochastic_rounding_never_exceeds_one_step(x in -20.0f64..20.0, seed in 0u64..200) {
        let mut r = rng::seeded(seed);
        let out = RoundingMode::Stochastic.round_steps(x, &mut r);
        prop_assert!((out as f64 - x).abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn truncate_never_overshoots(x in -20.0f64..20.0) {
        let mut r = rng::seeded(0);
        let out = RoundingMode::Truncate.round_steps(x, &mut r);
        prop_assert!((out as f64).abs() <= x.abs());
        prop_assert!(out == 0 || (out > 0) == (x > 0.0));
    }
}
