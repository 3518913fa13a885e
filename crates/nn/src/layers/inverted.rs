use crate::layers::{BatchNorm2d, Conv2d, Relu6};
use crate::{Layer, Mode, NnError, Param, ParamKind, QuantScheme};
use apt_tensor::{ops, Tensor};
use rand::rngs::StdRng;

/// MobileNetV2 inverted-residual block (Sandler et al. \[17\]):
///
/// ```text
/// expand (1×1 conv, t×) → bn → relu6
///   → depthwise (3×3, stride s) → bn → relu6
///   → project (1×1 conv) → bn
/// + identity skip when s == 1 and in == out
/// ```
///
/// The expansion stage is omitted when `expand_ratio == 1` (the first
/// MobileNetV2 block).
#[derive(Debug)]
pub struct InvertedResidual {
    name: String,
    expand: Option<(Conv2d, BatchNorm2d, Relu6)>,
    depthwise: Conv2d,
    bn_dw: BatchNorm2d,
    relu_dw: Relu6,
    project: Conv2d,
    bn_proj: BatchNorm2d,
    use_skip: bool,
    forwarded: bool,
}

impl InvertedResidual {
    /// Creates an inverted-residual block.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a zero `expand_ratio` and
    /// propagates layer construction errors.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        expand_ratio: usize,
        scheme: &QuantScheme,
        rng: &mut StdRng,
    ) -> crate::Result<Self> {
        let name = name.into();
        if expand_ratio == 0 {
            return Err(NnError::BadConfig {
                reason: format!("inverted residual `{name}`: expand_ratio must be ≥ 1"),
            });
        }
        let wp = scheme.precision_for(ParamKind::Weight);
        let bnp = scheme.precision_for(ParamKind::BnGamma);
        let hidden = in_channels * expand_ratio;
        let expand = if expand_ratio > 1 {
            let conv = Conv2d::new(
                format!("{name}.expand.conv"),
                in_channels,
                hidden,
                1,
                1,
                0,
                1,
                wp,
                None,
                rng,
            )?;
            let bn = BatchNorm2d::new(format!("{name}.expand.bn"), hidden, bnp)?;
            Some((conv, bn, Relu6::new(format!("{name}.expand.relu6"))))
        } else {
            None
        };
        let depthwise = Conv2d::new(
            format!("{name}.dw.conv"),
            hidden,
            hidden,
            3,
            stride,
            1,
            hidden,
            wp,
            None,
            rng,
        )?;
        let bn_dw = BatchNorm2d::new(format!("{name}.dw.bn"), hidden, bnp)?;
        let project = Conv2d::new(
            format!("{name}.project.conv"),
            hidden,
            out_channels,
            1,
            1,
            0,
            1,
            wp,
            None,
            rng,
        )?;
        let bn_proj = BatchNorm2d::new(format!("{name}.project.bn"), out_channels, bnp)?;
        Ok(InvertedResidual {
            relu_dw: Relu6::new(format!("{name}.dw.relu6")),
            name,
            expand,
            depthwise,
            bn_dw,
            project,
            bn_proj,
            use_skip: stride == 1 && in_channels == out_channels,
            forwarded: false,
        })
    }
}

impl Layer for InvertedResidual {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let mut h = input.clone();
        if let Some((conv, bn, relu6)) = &mut self.expand {
            h = conv.forward(&h, mode)?;
            h = bn.forward(&h, mode)?;
            h = relu6.forward(&h, mode)?;
        }
        h = self.depthwise.forward(&h, mode)?;
        h = self.bn_dw.forward(&h, mode)?;
        h = self.relu_dw.forward(&h, mode)?;
        h = self.project.forward(&h, mode)?;
        h = self.bn_proj.forward(&h, mode)?;
        let out = if self.use_skip {
            ops::add(&h, input).map_err(|e| NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("skip add failed: {e}"),
            })?
        } else {
            h
        };
        self.forwarded = true;
        Ok(out)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let mut h = input.clone();
        if let Some((conv, bn, relu6)) = &self.expand {
            h = conv.forward_inference(&h)?;
            h = bn.forward_inference(&h)?;
            h = relu6.forward_inference(&h)?;
        }
        h = self.depthwise.forward_inference(&h)?;
        h = self.bn_dw.forward_inference(&h)?;
        h = self.relu_dw.forward_inference(&h)?;
        h = self.project.forward_inference(&h)?;
        h = self.bn_proj.forward_inference(&h)?;
        if self.use_skip {
            Ok(ops::add(&h, input).map_err(|e| NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("skip add failed: {e}"),
            })?)
        } else {
            Ok(h)
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        if !self.forwarded {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        let mut d = self.bn_proj.backward(grad_output)?;
        d = self.project.backward(&d)?;
        d = self.relu_dw.backward(&d)?;
        d = self.bn_dw.backward(&d)?;
        d = self.depthwise.backward(&d)?;
        if let Some((conv, bn, relu6)) = &mut self.expand {
            d = relu6.backward(&d)?;
            d = bn.backward(&d)?;
            d = conv.backward(&d)?;
        }
        if self.use_skip {
            d = ops::add(&d, grad_output)?;
        }
        Ok(d)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if let Some((conv, bn, _)) = &mut self.expand {
            conv.visit_params(f);
            bn.visit_params(f);
        }
        self.depthwise.visit_params(f);
        self.bn_dw.visit_params(f);
        self.project.visit_params(f);
        self.bn_proj.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        if let Some((conv, bn, _)) = &self.expand {
            conv.visit_params_ref(f);
            bn.visit_params_ref(f);
        }
        self.depthwise.visit_params_ref(f);
        self.bn_dw.visit_params_ref(f);
        self.project.visit_params_ref(f);
        self.bn_proj.visit_params_ref(f);
    }

    fn macs_last_forward(&self) -> u64 {
        self.expand
            .as_ref()
            .map_or(0, |(c, _, _)| c.macs_last_forward())
            + self.depthwise.macs_last_forward()
            + self.project.macs_last_forward()
    }

    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        if let Some((conv, _, _)) = &self.expand {
            conv.visit_compute(f);
        }
        self.depthwise.visit_compute(f);
        self.project.visit_compute(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        if let Some((_, bn, _)) = &mut self.expand {
            bn.visit_buffers(f);
        }
        self.bn_dw.visit_buffers(f);
        self.bn_proj.visit_buffers(f);
    }

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        let entry = builder.current_value();
        if let Some((conv, bn, _)) = &self.expand {
            conv.lower(builder)?;
            bn.lower(builder)?;
            builder.push_relu6();
        }
        self.depthwise.lower(builder)?;
        self.bn_dw.lower(builder)?;
        builder.push_relu6();
        self.project.lower(builder)?;
        self.bn_proj.lower(builder)?;
        if self.use_skip {
            // No activation after the merge — the linear bottleneck.
            builder.push_add(entry, apt_tensor::ops::fused::Epilogue::None)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn skip_block_preserves_shape() {
        let mut b =
            InvertedResidual::new("ir", 8, 8, 1, 2, &QuantScheme::float32(), &mut seeded(0))
                .unwrap();
        assert!(b.use_skip);
        let x = normal(&[1, 8, 4, 4], 1.0, &mut seeded(1));
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
        let dx = b.backward(&Tensor::ones(&[1, 8, 4, 4])).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn strided_block_downsamples_without_skip() {
        let mut b =
            InvertedResidual::new("ir", 8, 16, 2, 4, &QuantScheme::float32(), &mut seeded(0))
                .unwrap();
        assert!(!b.use_skip);
        let x = normal(&[2, 8, 8, 8], 1.0, &mut seeded(1));
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 16, 4, 4]);
    }

    #[test]
    fn expand_ratio_one_has_no_expansion_stage() {
        let b = InvertedResidual::new("ir", 8, 8, 1, 1, &QuantScheme::float32(), &mut seeded(0))
            .unwrap();
        let mut weights = 0;
        b.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight {
                weights += 1;
            }
        });
        assert_eq!(weights, 2); // depthwise + project only
        assert!(
            InvertedResidual::new("x", 8, 8, 1, 0, &QuantScheme::float32(), &mut seeded(0))
                .is_err()
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut b =
            InvertedResidual::new("ir", 2, 2, 1, 2, &QuantScheme::float32(), &mut seeded(2))
                .unwrap();
        let x = normal(&[1, 2, 3, 3], 1.0, &mut seeded(3));
        let go = normal(&[1, 2, 3, 3], 1.0, &mut seeded(4));
        let _ = b.forward(&x, Mode::Train).unwrap();
        let dx = b.backward(&go).unwrap();
        let eps = 1e-2;
        let loss = |b: &mut InvertedResidual, x: &Tensor| -> f32 {
            let y = b.forward(x, Mode::Train).unwrap();
            y.data().iter().zip(go.data()).map(|(a, c)| a * c).sum()
        };
        for k in [0usize, 7, 13] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let fd = (loss(&mut b, &xp) - loss(&mut b, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[k]).abs() < 0.1,
                "k={k} fd={fd} an={}",
                dx.data()[k]
            );
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut b =
            InvertedResidual::new("ir", 4, 4, 1, 2, &QuantScheme::float32(), &mut seeded(0))
                .unwrap();
        assert!(b.backward(&Tensor::zeros(&[1, 4, 2, 2])).is_err());
    }
}
