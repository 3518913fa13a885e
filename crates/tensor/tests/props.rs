//! Property-based tests of the tensor kernels.

use apt_tensor::ops::conv::{conv2d, Conv2dParams};
use apt_tensor::ops::{self, pad};
use apt_tensor::{rng, Tensor};
use proptest::prelude::*;

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, 1..max_len).prop_map(|v| Tensor::from_slice(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_is_commutative_and_sub_inverts(v in tensor_strategy(64)) {
        let w = v.map(|x| x * 0.5 - 1.0);
        let ab = ops::add(&v, &w).unwrap();
        let ba = ops::add(&w, &v).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
        let back = ops::sub(&ab, &w).unwrap();
        for (x, y) in back.data().iter().zip(v.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn scale_distributes_over_add(v in tensor_strategy(64), s in -3.0f32..3.0) {
        let w = v.map(|x| x + 1.0);
        let lhs = ops::scale(&ops::add(&v, &w).unwrap(), s);
        let rhs = ops::add(&ops::scale(&v, s), &ops::scale(&w, s)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_is_linear_in_first_argument(
        seed in 0u64..1000,
        alpha in -2.0f32..2.0,
    ) {
        let mut r = rng::seeded(seed);
        let a = rng::normal(&[3, 4], 1.0, &mut r);
        let b = rng::normal(&[3, 4], 1.0, &mut r);
        let m = rng::normal(&[4, 2], 1.0, &mut r);
        // (a + α·b)·m == a·m + α·(b·m)
        let lhs = ops::matmul(&ops::add(&a, &ops::scale(&b, alpha)).unwrap(), &m).unwrap();
        let rhs = ops::add(
            &ops::matmul(&a, &m).unwrap(),
            &ops::scale(&ops::matmul(&b, &m).unwrap(), alpha),
        )
        .unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let mut r = rng::seeded(seed);
        let a = rng::normal(&[3, 5], 1.0, &mut r);
        let b = rng::normal(&[5, 2], 1.0, &mut r);
        let lhs = ops::transpose(&ops::matmul(&a, &b).unwrap()).unwrap();
        let rhs =
            ops::matmul(&ops::transpose(&b).unwrap(), &ops::transpose(&a).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn conv_is_linear_in_input(seed in 0u64..500, alpha in -2.0f32..2.0) {
        let mut r = rng::seeded(seed);
        let p = Conv2dParams::new(1, 1, 1);
        let x1 = rng::normal(&[1, 2, 5, 5], 1.0, &mut r);
        let x2 = rng::normal(&[1, 2, 5, 5], 1.0, &mut r);
        let w = rng::normal(&[3, 2, 3, 3], 1.0, &mut r);
        let lhs = conv2d(&ops::add(&x1, &ops::scale(&x2, alpha)).unwrap(), &w, &p).unwrap();
        let rhs = ops::add(
            &conv2d(&x1, &w, &p).unwrap(),
            &ops::scale(&conv2d(&x2, &w, &p).unwrap(), alpha),
        )
        .unwrap();
        for (a, b) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn pad_then_crop_is_identity(seed in 0u64..1000, p in 0usize..4) {
        let mut r = rng::seeded(seed);
        let img = rng::normal(&[3, 4, 4], 1.0, &mut r);
        let padded = pad::pad_chw(&img, p).unwrap();
        let back = pad::crop_chw(&padded, p, p, 4, 4).unwrap();
        prop_assert_eq!(back.data(), img.data());
    }

    #[test]
    fn hflip_is_involution(seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let img = rng::normal(&[2, 3, 5], 1.0, &mut r);
        let twice = pad::hflip_chw(&pad::hflip_chw(&img).unwrap()).unwrap();
        prop_assert_eq!(twice.data(), img.data());
    }

    #[test]
    fn pad_preserves_sum(seed in 0u64..1000, p in 0usize..5) {
        let mut r = rng::seeded(seed);
        let img = rng::normal(&[1, 3, 3], 1.0, &mut r);
        let padded = pad::pad_chw(&img, p).unwrap();
        let sum = |t: &Tensor| t.data().iter().sum::<f32>();
        prop_assert!((sum(&padded) - sum(&img)).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions(seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let x = rng::normal(&[4, 7], 5.0, &mut r);
        let s = ops::softmax::softmax_rows(&x).unwrap();
        for i in 0..4 {
            let row = &s.data()[i * 7..(i + 1) * 7];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn shuffle_is_permutation(n in 1usize..200, seed in 0u64..1000) {
        let mut idx: Vec<usize> = (0..n).collect();
        rng::shuffle_indices(&mut idx, &mut rng::seeded(seed));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
