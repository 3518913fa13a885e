//! Deterministic random-tensor helpers.
//!
//! Every stochastic component of the reproduction (weight init, synthetic
//! data, shuffling, augmentation) draws from a seeded [`rand::rngs::StdRng`],
//! so experiments are bitwise reproducible given a seed. This module provides
//! the tensor-filling primitives on top of that.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// ```
/// let mut a = apt_tensor::rng::seeded(42);
/// let mut b = apt_tensor::rng::seeded(42);
/// use rand::Rng;
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child RNG from a parent seed and a stream index so independent
/// components (data vs. init vs. shuffle) never share a stream.
pub fn substream(seed: u64, stream: u64) -> StdRng {
    // SplitMix64-style mixing keeps sub-streams decorrelated even for
    // adjacent (seed, stream) pairs.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Samples a standard normal value via Box–Muller.
pub fn standard_normal(rng: &mut StdRng) -> f32 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Tensor with i.i.d. `N(0, std²)` entries.
pub fn normal(dims: &[usize], std: f32, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = standard_normal(rng) * std;
    }
    t
}

/// He/Kaiming-normal initialisation for a weight tensor with `fan_in`
/// incoming connections (He et al. 2015, as used by the paper §IV).
pub fn he_normal(dims: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(dims, std, rng)
}

/// In-place Fisher–Yates shuffle of an index vector.
pub fn shuffle_indices(indices: &mut [usize], rng: &mut StdRng) {
    for i in (1..indices.len()).rev() {
        let j = rng.gen_range(0..=i);
        indices.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a = normal(&[32], 1.0, &mut seeded(7));
        let b = normal(&[32], 1.0, &mut seeded(7));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn substreams_differ() {
        let a = normal(&[32], 1.0, &mut substream(7, 0));
        let b = normal(&[32], 1.0, &mut substream(7, 1));
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let t = normal(&[20_000], 2.0, &mut seeded(3));
        let mean = t.data().iter().sum::<f32>() / t.len() as f32;
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let wide = he_normal(&[5_000], 1000, &mut seeded(1));
        let narrow = he_normal(&[5_000], 10, &mut seeded(1));
        assert!(wide.l2_norm() < narrow.l2_norm());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut idx: Vec<usize> = (0..100).collect();
        shuffle_indices(&mut idx, &mut seeded(11));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn standard_normal_is_finite() {
        let mut rng = seeded(99);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }
}
