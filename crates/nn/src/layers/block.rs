use crate::layers::{BatchNorm2d, Conv2d, Relu};
use crate::{Layer, Mode, NnError, Param, ParamKind, QuantScheme};
use apt_tensor::{ops, Tensor};
use rand::rngs::StdRng;

/// The ResNet basic residual block (He et al. \[6\]):
///
/// ```text
/// out = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )
/// ```
///
/// The shortcut is identity when the shape is preserved, otherwise a
/// 1×1 strided convolution + batch-norm projection. Both 3×3 convolutions
/// (and the projection, if any) carry their own independently-adaptable
/// quantised weights — these are the "layers" whose bitwidths Figure 3
/// traces.
#[derive(Debug)]
pub struct BasicBlock {
    name: String,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    cached_sum: Option<Tensor>,
}

impl BasicBlock {
    /// Creates a basic block mapping `in_channels → out_channels` with the
    /// given stride on the first convolution.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the constituent layers.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        scheme: &QuantScheme,
        rng: &mut StdRng,
    ) -> crate::Result<Self> {
        let name = name.into();
        let wp = scheme.precision_for(ParamKind::Weight);
        let bnp = scheme.precision_for(ParamKind::BnGamma);
        let conv1 = Conv2d::new(
            format!("{name}.conv1"),
            in_channels,
            out_channels,
            3,
            stride,
            1,
            1,
            wp,
            None,
            rng,
        )?;
        let bn1 = BatchNorm2d::new(format!("{name}.bn1"), out_channels, bnp)?;
        let conv2 = Conv2d::new(
            format!("{name}.conv2"),
            out_channels,
            out_channels,
            3,
            1,
            1,
            1,
            wp,
            None,
            rng,
        )?;
        let bn2 = BatchNorm2d::new(format!("{name}.bn2"), out_channels, bnp)?;
        let shortcut = if stride != 1 || in_channels != out_channels {
            let conv_s = Conv2d::new(
                format!("{name}.shortcut.conv"),
                in_channels,
                out_channels,
                1,
                stride,
                0,
                1,
                wp,
                None,
                rng,
            )?;
            let bn_s = BatchNorm2d::new(format!("{name}.shortcut.bn"), out_channels, bnp)?;
            Some((conv_s, bn_s))
        } else {
            None
        };
        Ok(BasicBlock {
            relu1: Relu::new(format!("{name}.relu1")),
            name,
            conv1,
            bn1,
            conv2,
            bn2,
            shortcut,
            cached_sum: None,
        })
    }
}

impl Layer for BasicBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let mut main = self.conv1.forward(input, mode)?;
        main = self.bn1.forward(&main, mode)?;
        main = self.relu1.forward(&main, mode)?;
        main = self.conv2.forward(&main, mode)?;
        main = self.bn2.forward(&main, mode)?;
        let sc = match &mut self.shortcut {
            Some((conv_s, bn_s)) => {
                let s = conv_s.forward(input, mode)?;
                bn_s.forward(&s, mode)?
            }
            None => input.clone(),
        };
        let sum = ops::add(&main, &sc).map_err(|e| NnError::BadInput {
            layer: self.name.clone(),
            reason: format!("residual add failed: {e}"),
        })?;
        let out = sum.map(|x| x.max(0.0));
        self.cached_sum = Some(sum);
        Ok(out)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let mut main = self.conv1.forward_inference(input)?;
        main = self.bn1.forward_inference(&main)?;
        main = self.relu1.forward_inference(&main)?;
        main = self.conv2.forward_inference(&main)?;
        main = self.bn2.forward_inference(&main)?;
        let sc = match &self.shortcut {
            Some((conv_s, bn_s)) => {
                let s = conv_s.forward_inference(input)?;
                bn_s.forward_inference(&s)?
            }
            None => input.clone(),
        };
        let sum = ops::add(&main, &sc).map_err(|e| NnError::BadInput {
            layer: self.name.clone(),
            reason: format!("residual add failed: {e}"),
        })?;
        Ok(sum.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let sum = self
            .cached_sum
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        // Final ReLU mask on the pre-activation sum.
        let dsum = sum.zip(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })?;
        // Main branch.
        let mut d = self.bn2.backward(&dsum)?;
        d = self.conv2.backward(&d)?;
        d = self.relu1.backward(&d)?;
        d = self.bn1.backward(&d)?;
        let dx_main = self.conv1.backward(&d)?;
        // Shortcut branch.
        let dx_sc = match &mut self.shortcut {
            Some((conv_s, bn_s)) => {
                let d = bn_s.backward(&dsum)?;
                conv_s.backward(&d)?
            }
            None => dsum,
        };
        Ok(ops::add(&dx_main, &dx_sc)?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv_s, bn_s)) = &mut self.shortcut {
            conv_s.visit_params(f);
            bn_s.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params_ref(f);
        self.bn1.visit_params_ref(f);
        self.conv2.visit_params_ref(f);
        self.bn2.visit_params_ref(f);
        if let Some((conv_s, bn_s)) = &self.shortcut {
            conv_s.visit_params_ref(f);
            bn_s.visit_params_ref(f);
        }
    }

    fn macs_last_forward(&self) -> u64 {
        self.conv1.macs_last_forward()
            + self.conv2.macs_last_forward()
            + self
                .shortcut
                .as_ref()
                .map_or(0, |(c, _)| c.macs_last_forward())
    }

    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        self.conv1.visit_compute(f);
        self.conv2.visit_compute(f);
        if let Some((conv_s, _)) = &self.shortcut {
            conv_s.visit_compute(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.bn1.visit_buffers(f);
        self.bn2.visit_buffers(f);
        if let Some((_, bn_s)) = &mut self.shortcut {
            bn_s.visit_buffers(f);
        }
    }

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        let entry = builder.current_value();
        self.conv1.lower(builder)?;
        self.bn1.lower(builder)?;
        builder.push_relu();
        self.conv2.lower(builder)?;
        self.bn2.lower(builder)?;
        let main = builder.current_value();
        let side = match &self.shortcut {
            Some((conv_s, bn_s)) => {
                builder.branch_from(entry)?;
                conv_s.lower(builder)?;
                bn_s.lower(builder)?;
                builder.current_value()
            }
            None => entry,
        };
        builder.branch_from(main)?;
        builder.push_add(side, apt_tensor::ops::fused::Epilogue::Relu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn identity_block_shapes() {
        let mut b = BasicBlock::new("b", 8, 8, 1, &QuantScheme::float32(), &mut seeded(0)).unwrap();
        assert!(b.shortcut.is_none());
        let x = normal(&[2, 8, 4, 4], 1.0, &mut seeded(1));
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
        let dx = b.backward(&Tensor::ones(&[2, 8, 4, 4])).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert!(b.macs_last_forward() > 0);
    }

    #[test]
    fn projection_block_downsamples() {
        let mut b =
            BasicBlock::new("b", 8, 16, 2, &QuantScheme::float32(), &mut seeded(0)).unwrap();
        assert!(b.shortcut.is_some());
        let x = normal(&[1, 8, 8, 8], 1.0, &mut seeded(1));
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 16, 4, 4]);
        let dx = b.backward(&Tensor::ones(&[1, 16, 4, 4])).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn block_gradient_matches_finite_difference() {
        let mut b = BasicBlock::new("b", 2, 2, 1, &QuantScheme::float32(), &mut seeded(3)).unwrap();
        let x = normal(&[1, 2, 4, 4], 1.0, &mut seeded(4));
        let go = normal(&[1, 2, 4, 4], 1.0, &mut seeded(5));
        let _ = b.forward(&x, Mode::Train).unwrap();
        let dx = b.backward(&go).unwrap();
        let eps = 1e-2;
        let loss = |b: &mut BasicBlock, x: &Tensor| -> f32 {
            let y = b.forward(x, Mode::Train).unwrap();
            y.data().iter().zip(go.data()).map(|(a, c)| a * c).sum()
        };
        for k in [1usize, 11, 23] {
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
    fn param_count_identity_vs_projection() {
        let count = |b: &BasicBlock| {
            let mut n = 0;
            b.visit_params_ref(&mut |_| n += 1);
            n
        };
        let id = BasicBlock::new("b", 8, 8, 1, &QuantScheme::float32(), &mut seeded(0)).unwrap();
        let pr = BasicBlock::new("b", 8, 16, 2, &QuantScheme::float32(), &mut seeded(0)).unwrap();
        // 2 convs × 1 weight + 2 bns × 2 = 6; projection adds conv + bn = 3 more
        assert_eq!(count(&id), 6);
        assert_eq!(count(&pr), 9);
    }

    #[test]
    fn backward_requires_forward() {
        let mut b = BasicBlock::new("b", 4, 4, 1, &QuantScheme::float32(), &mut seeded(0)).unwrap();
        assert!(b.backward(&Tensor::zeros(&[1, 4, 2, 2])).is_err());
    }
}
