//! Determinism contract of the parallel compute backend: every
//! parallelised kernel must produce **bit-identical** output for every
//! thread count. Chunk boundaries derive only from the problem shape, and
//! per-element accumulation order never changes, so these properties must
//! hold exactly — `f32::to_bits` equality, no tolerances.

use apt_tensor::ops::conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dParams};
use apt_tensor::ops::pool::{global_avg_pool, max_pool2d};
use apt_tensor::ops::reduce::{argmax_rows, channel_mean_var, sum_channels, sum_rows};
use apt_tensor::ops::softmax::{cross_entropy, softmax_rows};
use apt_tensor::ops::{self};
use apt_tensor::{par, rng, Tensor};
use proptest::prelude::*;

/// Thread counts exercised against the 1-thread reference: even, odd, and
/// more threads than this machine (or most shapes) can use.
const THREADS: [usize; 3] = [2, 3, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` at 1 thread and at each count in [`THREADS`], asserting the
/// bit patterns agree everywhere.
fn assert_thread_invariant(label: &str, f: impl Fn() -> Vec<u32>) {
    let reference = par::with_threads(1, &f);
    for &t in &THREADS {
        let got = par::with_threads(t, &f);
        assert_eq!(reference, got, "{label}: output differs at {t} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_is_thread_invariant(
        seed in 0u64..1000,
        m in 0usize..33,
        k in 0usize..17,
        n in 1usize..29,
    ) {
        let mut r = rng::seeded(seed);
        let a = rng::normal(&[m, k], 1.0, &mut r);
        let b = rng::normal(&[k, n], 1.0, &mut r);
        assert_thread_invariant("matmul", || bits(&ops::matmul(&a, &b).unwrap()));

        let g = rng::normal(&[m, n], 1.0, &mut r);
        assert_thread_invariant("matmul_at_b", || bits(&ops::matmul_at_b(&a, &g).unwrap()));
        let bt = rng::normal(&[n, k], 1.0, &mut r);
        assert_thread_invariant("matmul_a_bt", || bits(&ops::matmul_a_bt(&a, &bt).unwrap()));
    }

    #[test]
    fn conv_family_is_thread_invariant(
        seed in 0u64..1000,
        imgs in 1usize..5,
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 3usize..8,
    ) {
        let mut r = rng::seeded(seed);
        let p = Conv2dParams::new(1, 1, 1);
        let x = rng::normal(&[imgs, c_in, hw, hw], 1.0, &mut r);
        let w = rng::normal(&[c_out, c_in, 3, 3], 1.0, &mut r);
        let y = conv2d(&x, &w, &p).unwrap();
        let go = rng::normal(y.dims(), 1.0, &mut r);

        assert_thread_invariant("conv2d", || bits(&conv2d(&x, &w, &p).unwrap()));
        assert_thread_invariant("conv2d_backward_input", || {
            bits(&conv2d_backward_input(&go, &w, x.dims(), &p).unwrap())
        });
        assert_thread_invariant("conv2d_backward_weight", || {
            bits(&conv2d_backward_weight(&x, &go, w.dims(), &p).unwrap())
        });
    }

    #[test]
    fn elementwise_and_softmax_are_thread_invariant(
        seed in 0u64..1000,
        m in 1usize..20,
        n in 1usize..20,
        s in -3.0f32..3.0,
    ) {
        let mut r = rng::seeded(seed);
        let a = rng::normal(&[m, n], 2.0, &mut r);
        let b = rng::normal(&[m, n], 2.0, &mut r);

        assert_thread_invariant("add", || bits(&ops::add(&a, &b).unwrap()));
        assert_thread_invariant("scale", || bits(&ops::scale(&a, s)));
        assert_thread_invariant("axpy", || {
            let mut y = b.clone();
            ops::axpy(s, &a, &mut y).unwrap();
            bits(&y)
        });
        assert_thread_invariant("softmax_rows", || bits(&softmax_rows(&a).unwrap()));

        let labels: Vec<usize> = (0..m).map(|i| i % n).collect();
        assert_thread_invariant("cross_entropy", || {
            let out = cross_entropy(&a, &labels).unwrap();
            let mut v = bits(&out.grad_logits);
            v.push(out.loss.to_bits());
            v
        });
    }

    #[test]
    fn reductions_and_pools_are_thread_invariant(
        seed in 0u64..1000,
        imgs in 1usize..4,
        c in 1usize..5,
        hw in 2usize..7,
    ) {
        let mut r = rng::seeded(seed);
        let x = rng::normal(&[imgs, c, 2 * hw, 2 * hw], 1.5, &mut r);
        let flat = rng::normal(&[c * hw, hw], 1.5, &mut r);

        assert_thread_invariant("sum_rows", || bits(&sum_rows(&flat).unwrap()));
        assert_thread_invariant("sum_channels", || bits(&sum_channels(&x).unwrap()));
        assert_thread_invariant("channel_mean_var", || {
            let (mu, var) = channel_mean_var(&x).unwrap();
            let mut v = bits(&mu);
            v.extend(bits(&var));
            v
        });
        assert_thread_invariant("argmax_rows", || {
            argmax_rows(&flat).unwrap().iter().map(|&i| i as u32).collect()
        });
        assert_thread_invariant("max_pool2d", || {
            let out = max_pool2d(&x, 2).unwrap();
            let mut v = bits(&out.output);
            v.extend(out.argmax.iter().map(|&i| i as u32));
            v
        });
        assert_thread_invariant("global_avg_pool", || bits(&global_avg_pool(&x).unwrap()));
    }
}
