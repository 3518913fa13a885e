//! Layer implementations.
//!
//! Primitive layers ([`Linear`], [`Conv2d`], [`BatchNorm2d`], [`Relu`] and
//! [`Relu6`] — the two instances of [`Clamp`] —, [`MaxPool2d`],
//! [`GlobalAvgPool`], [`Flatten`]) and the two composites
//! every deeper architecture is built from: [`Sequential`], a named chain,
//! and [`Residual`], `act(body(x) + shortcut(x))`. The paper's ResNet and
//! MobileNetV2 blocks are builders over these two in [`crate::models`].
//!
//! A layer's training forward stashes what its backward reads, in the
//! smallest form that gives the same bits: [`Conv2d`] and [`Linear`] their
//! input, [`BatchNorm2d`] x̂ and 1/σ, the clamps ([`Relu`], [`Relu6`], a
//! [`Residual`]'s activation) one byte per element saying whether the
//! gradient passes, [`MaxPool2d`] one byte per window naming its winner,
//! the rest their input's dims. The backward that reads a stash
//! takes it, so it is freed before the next forward builds its own, and a
//! second backward is [`crate::NnError::BackwardBeforeForward`] (DESIGN.md
//! §10, "The training stash").

mod activation;
mod batchnorm;
mod compose;
mod conv;
mod flatten;
mod linear;
mod pool;

pub use activation::{Clamp, Relu, Relu6};
pub use batchnorm::BatchNorm2d;
#[cfg(test)]
pub(crate) use compose::tests::assert_input_gradient;
pub use compose::{Residual, Sequential};
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Mode, NnError, ParamPrecision};
    use apt_tensor::ops::fused::Epilogue;
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

    /// One of each layer whose backward reads a stash.
    fn stashing_layers() -> Vec<Box<dyn Layer>> {
        let fp = ParamPrecision::Float32;
        let conv =
            |name: &str| Conv2d::new(name, 2, 2, 3, 1, 1, 1, fp, Some(fp), &mut seeded(1)).unwrap();
        let body = Sequential::new("res", vec![Box::new(conv("res.conv"))]);
        vec![
            Box::new(conv("conv")),
            Box::new(Linear::new("fc", 6, 3, fp, Some(fp), &mut seeded(2)).unwrap()),
            Box::new(BatchNorm2d::new("bn", 2, fp).unwrap()),
            Box::new(Relu::new("relu")),
            Box::new(Relu6::new("relu6")),
            Box::new(MaxPool2d::new("pool", 2)),
            Box::new(Residual::new(body, None, Epilogue::Relu)),
        ]
    }

    #[test]
    fn a_stash_is_read_once() {
        for params_only in [false, true] {
            for mut layer in stashing_layers() {
                let dims: &[usize] = if layer.name() == "fc" {
                    &[2, 6]
                } else {
                    &[2, 2, 4, 4]
                };
                let x = normal(dims, 1.0, &mut seeded(3));
                let y = layer.forward(&x, Mode::Train).unwrap();
                let g = normal(y.dims(), 1.0, &mut seeded(4));
                if params_only {
                    layer.backward_params(&g).unwrap();
                } else {
                    layer.backward(&g).unwrap();
                }
                assert!(
                    matches!(
                        layer.backward(&g),
                        Err(NnError::BackwardBeforeForward { .. })
                    ),
                    "{}: a second backward found a stash",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn masks_pass_what_the_element_rule_passes_bit_for_bit() {
        // The rule the masks replace: the gradient passes where 0 < x < top
        // (no top: ReLU).
        let rule = |x: f32, top: Option<f32>| x > 0.0 && top.is_none_or(|t| x < t);
        let up = |v: f32| f32::from_bits(v.to_bits() + 1);
        let down = |v: f32| f32::from_bits(v.to_bits() - 1);
        let tiny = f32::from_bits(1);
        let xs = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            tiny,
            -tiny,
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
            3.0,
            6.0,
            down(6.0),
            up(6.0),
            f32::MAX,
            f32::MIN,
        ];
        let gs = [1.5, -0.0, 0.0, -2.0, f32::NAN, tiny, f32::INFINITY];
        let (x, g): (Vec<f32>, Vec<f32>) = xs.iter().flat_map(|&x| gs.map(|g| (x, g))).unzip();
        let n = x.len();
        let x = Tensor::from_vec(x, &[n]).unwrap();
        let g = Tensor::from_vec(g, &[n]).unwrap();
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let passed = |x: &Tensor, g: &Tensor, top| -> Vec<f32> {
            let pairs = x.data().iter().zip(g.data());
            pairs
                .map(|(&x, &g)| if rule(x, top) { g } else { 0.0 })
                .collect()
        };

        let clamps: [(Box<dyn Layer>, Option<f32>); 2] = [
            (Box::new(Relu::new("relu")), None),
            (Box::new(Relu6::new("relu6")), Some(6.0)),
        ];
        for (mut clamp, top) in clamps {
            clamp.forward(&x, Mode::Train).unwrap();
            let dx = clamp.backward(&g).unwrap();
            assert_eq!(
                bits(dx.data()),
                bits(&passed(&x, &g, top)),
                "{}",
                clamp.name()
            );
        }

        // Two identity branches: the mask is taken on x + x, and both carry
        // its gradient back.
        let sum = x.map(|v| v + v);
        for (act, top) in [(Epilogue::Relu, None), (Epilogue::Relu6, Some(6.0))] {
            let mut block = Residual::new(Sequential::new("id", Vec::new()), None, act);
            block.forward(&x, Mode::Train).unwrap();
            let want: Vec<f32> = passed(&sum, &g, top).iter().map(|&m| m + m).collect();
            let dx = block.backward(&g).unwrap();
            assert_eq!(bits(dx.data()), bits(&want), "{act:?}");
        }
    }
}
