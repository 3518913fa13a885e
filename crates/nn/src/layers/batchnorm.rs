use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param, ParamKind, ParamPrecision};
use apt_tensor::{ops::reduce, Tensor};

/// Numerical floor added to the variance before the square root.
const BN_EPS: f32 = 1e-5;

/// Batch normalisation over the channel axis of an NCHW tensor (Ioffe &
/// Szegedy; the paper trains all backbones "with BN and no dropout", §IV).
///
/// Learnable γ/β follow the configured precision (fp32 under the paper's
/// scheme); running mean/variance are non-learnable fp32 buffers used in
/// [`Mode::Eval`].
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Tensor,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer (γ = 1, β = 0, running stats = (0, 1)).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero channels.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        precision: ParamPrecision,
    ) -> crate::Result<Self> {
        let name = name.into();
        if channels == 0 {
            return Err(NnError::BadConfig {
                reason: format!("bn `{name}`: zero channels"),
            });
        }
        let gamma = Param::new(
            format!("{name}.gamma"),
            ParamKind::BnGamma,
            Tensor::ones(&[channels]),
            precision,
        )?;
        let beta = Param::new(
            format!("{name}.beta"),
            ParamKind::BnBeta,
            Tensor::zeros(&[channels]),
            precision,
        )?;
        Ok(BatchNorm2d {
            name,
            gamma,
            beta,
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            channels,
            cache: None,
        })
    }

    fn check_input(&self, input: &Tensor) -> crate::Result<()> {
        if input.rank() != 4 || input.dims()[1] != self.channels {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "expected [n, {}, h, w], got {:?}",
                    self.channels,
                    input.dims()
                ),
            });
        }
        Ok(())
    }

    /// `x̂ = (x − μ)·inv_std` and `y = γ·x̂ + β` in **one pass** over the
    /// input, shared by training and evaluation so the two agree bit for
    /// bit: each output is the same four separately rounded operations
    /// whether or not `x̂` is also stored (`xhat`, training only). Returns
    /// `(y, inv_std)`.
    fn normalize(
        &self,
        input: &Tensor,
        mean: &Tensor,
        var: &Tensor,
        mut xhat: Option<&mut Tensor>,
    ) -> (Tensor, Tensor) {
        let hw = input.dims()[2] * input.dims()[3];
        let inv_std = var.map(|v| 1.0 / (v + BN_EPS).sqrt());
        let (gamma, beta) = (self.gamma.value(), self.beta.value());
        let mut y = Tensor::zeros(input.dims());
        if hw == 0 {
            return (y, inv_std);
        }
        let planes = y
            .data_mut()
            .chunks_exact_mut(hw)
            .zip(input.data().chunks_exact(hw));
        for (p, (y_plane, x_plane)) in planes.enumerate() {
            let ch = p % self.channels;
            let (mu, is) = (mean.data()[ch], inv_std.data()[ch]);
            let (g, b) = (gamma.data()[ch], beta.data()[ch]);
            match &mut xhat {
                Some(xhat) => {
                    let xh_plane = &mut xhat.data_mut()[p * hw..(p + 1) * hw];
                    for ((o, h), &x) in y_plane.iter_mut().zip(xh_plane).zip(x_plane) {
                        *h = (x - mu) * is;
                        *o = g * *h + b;
                    }
                }
                None => {
                    for (o, &x) in y_plane.iter_mut().zip(x_plane) {
                        *o = g * ((x - mu) * is) + b;
                    }
                }
            }
        }
        (y, inv_std)
    }
}

/// Channels whose backward reductions run side by side. `Σdy` and
/// `Σ(dy·x̂)` are one f64 chain per channel across the whole batch, so the
/// independent chains are those of different *channels*: each image is
/// walked [`CHAINS`] channels at a time (two sums each), every channel
/// still receiving its elements in `(image, element)` order — interleaved,
/// never reassociated.
const CHAINS: usize = 4;

/// Adds one image's `dy` and `dy·x̂` for `L` adjacent channels (`go`, `xh`:
/// `L` planes of `hw`) onto the channels' running sums.
#[inline(always)]
fn add_image_sums<const L: usize>(
    go: &[f32],
    xh: &[f32],
    hw: usize,
    sum_dy: &mut [f64],
    sum_dy_xhat: &mut [f64],
) {
    let (go, xh) = (&go[..L * hw], &xh[..L * hw]);
    let mut sd: [f64; L] = std::array::from_fn(|l| sum_dy[l]);
    let mut sdx: [f64; L] = std::array::from_fn(|l| sum_dy_xhat[l]);
    for t in 0..hw {
        for l in 0..L {
            let (g, x) = (go[l * hw + t], xh[l * hw + t]);
            sd[l] += g as f64;
            sdx[l] += (g * x) as f64;
        }
    }
    sum_dy[..L].copy_from_slice(&sd);
    sum_dy_xhat[..L].copy_from_slice(&sdx);
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        self.check_input(input)?;
        if mode == Mode::Eval {
            let (y, _) = self.normalize(input, &self.running_mean, &self.running_var, None);
            return Ok(y);
        }
        let (mean, var) = reduce::channel_mean_var(input)?;
        // running = (1−m)·running + m·batch
        for ch in 0..self.channels {
            let rm = &mut self.running_mean.data_mut()[ch];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean.data()[ch];
            let rv = &mut self.running_var.data_mut()[ch];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * var.data()[ch];
        }
        let mut xhat = Tensor::zeros(input.dims());
        let (y, inv_std) = self.normalize(input, &mean, &var, Some(&mut xhat));
        self.cache = Some(BnCache {
            xhat,
            inv_std,
            dims: input.dims().to_vec(),
        });
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let cache = take_stash(&mut self.cache, &self.name)?;
        if grad_output.dims() != cache.dims.as_slice() {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "grad_output {:?} != forward shape {:?}",
                    grad_output.dims(),
                    cache.dims
                ),
            });
        }
        let (n, c, hw) = (cache.dims[0], cache.dims[1], cache.dims[2] * cache.dims[3]);
        let m = (n * hw) as f32;
        let gamma = self.gamma.value();
        let go = grad_output.data();
        let xh = cache.xhat.data();

        // Per-channel reductions: Σdy and Σ(dy·x̂)
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for img in 0..n {
            let mut ch = 0;
            while ch < c {
                let at = (img * c + ch) * hw;
                let (sd, sdx) = (&mut sum_dy[ch..], &mut sum_dy_xhat[ch..]);
                if ch + CHAINS <= c {
                    add_image_sums::<CHAINS>(&go[at..], &xh[at..], hw, sd, sdx);
                    ch += CHAINS;
                } else {
                    add_image_sums::<1>(&go[at..], &xh[at..], hw, sd, sdx);
                    ch += 1;
                }
            }
        }
        // dγ = Σ(dy·x̂), dβ = Σdy
        let dgamma = Tensor::from_vec(sum_dy_xhat.iter().map(|&v| v as f32).collect(), &[c])?;
        let dbeta = Tensor::from_vec(sum_dy.iter().map(|&v| v as f32).collect(), &[c])?;
        self.gamma.accumulate_grad(&dgamma)?;
        self.beta.accumulate_grad(&dbeta)?;

        // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = Tensor::zeros(&cache.dims);
        if hw > 0 {
            let planes = dx.data_mut().chunks_exact_mut(hw);
            let planes = planes.zip(go.chunks_exact(hw).zip(xh.chunks_exact(hw)));
            for (p, (dx_plane, (go_plane, xh_plane))) in planes.enumerate() {
                let ch = p % c;
                let scale = gamma.data()[ch] * cache.inv_std.data()[ch] / m;
                let (sd, sdx) = (dbeta.data()[ch], dgamma.data()[ch]);
                for (d, (&g, &x)) in dx_plane.iter_mut().zip(go_plane.iter().zip(xh_plane)) {
                    *d = scale * (m * g - sd - x * sdx);
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        let mean_name = format!("{}.running_mean", self.name);
        f(&mean_name, &mut self.running_mean);
        let var_name = format!("{}.running_var", self.name);
        f(&var_name, &mut self.running_var);
    }

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        let gamma = self.gamma.value();
        let beta = self.beta.value();
        builder.push_bn(
            gamma.data(),
            beta.data(),
            self.running_mean.data(),
            self.running_var.data(),
            BN_EPS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm2d::new("bn", 3, ParamPrecision::Float32).unwrap();
        let x = normal(&[4, 3, 5, 5], 2.0, &mut seeded(1)).map(|v| v + 3.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        let (mean, var) = reduce::channel_mean_var(&y).unwrap();
        for ch in 0..3 {
            assert!(mean.data()[ch].abs() < 1e-4, "mean={}", mean.data()[ch]);
            assert!(
                (var.data()[ch] - 1.0).abs() < 1e-2,
                "var={}",
                var.data()[ch]
            );
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new("bn", 2, ParamPrecision::Float32).unwrap();
        let x = normal(&[8, 2, 4, 4], 1.0, &mut seeded(2)).map(|v| v + 5.0);
        // Train several times so running stats converge toward batch stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, Mode::Train).unwrap();
        }
        let y_eval = bn.forward(&x, Mode::Eval).unwrap();
        let (mean, _) = reduce::channel_mean_var(&y_eval).unwrap();
        for ch in 0..2 {
            assert!(mean.data()[ch].abs() < 0.1, "eval mean={}", mean.data()[ch]);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut bn = BatchNorm2d::new("bn", 2, ParamPrecision::Float32).unwrap();
        let x = normal(&[2, 2, 3, 3], 1.0, &mut seeded(3));
        let go = normal(&[2, 2, 3, 3], 1.0, &mut seeded(4));
        let _ = bn.forward(&x, Mode::Train).unwrap();
        let dx = bn.backward(&go).unwrap();

        let eps = 1e-2;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, Mode::Train).unwrap();
            y.data().iter().zip(go.data()).map(|(a, b)| a * b).sum()
        };
        for k in [0usize, 9, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let fd = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[k]).abs() < 3e-2,
                "k={k} fd={fd} an={}",
                dx.data()[k]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm2d::new("bn", 1, ParamPrecision::Float32).unwrap();
        let x = normal(&[2, 1, 2, 2], 1.0, &mut seeded(5));
        let _ = bn.forward(&x, Mode::Train).unwrap();
        let go = Tensor::ones(&[2, 1, 2, 2]);
        let _ = bn.backward(&go).unwrap();
        bn.visit_params_ref(&mut |p| match p.kind() {
            // dβ = Σ dy = 8; dγ = Σ x̂ ≈ 0 (normalised)
            ParamKind::BnBeta => assert!((p.grad().data()[0] - 8.0).abs() < 1e-4),
            ParamKind::BnGamma => assert!(p.grad().data()[0].abs() < 1e-3),
            _ => {}
        });
    }

    /// The layer as it was before the forward passes were fused and the
    /// backward reductions interleaved, on raw slices: `x̂` written out and
    /// read back for `γ·x̂ + β`, `Σdy` / `Σ(dy·x̂)` one serial chain per
    /// channel. Returns `(y, dx, dγ, dβ)`.
    fn serial_layer(
        (n, c, hw): (usize, usize, usize),
        x: &[f32],
        go: &[f32],
        (mean, var): (&[f32], &[f32]),
        (gamma, beta): (&[f32], &[f32]),
    ) -> [Vec<f32>; 4] {
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let mut xhat = vec![0.0f32; x.len()];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * hw;
                for k in base..base + hw {
                    xhat[k] = (x[k] - mean[ch]) * inv_std[ch];
                }
            }
        }
        let mut y = vec![0.0f32; x.len()];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * hw;
                for k in base..base + hw {
                    y[k] = gamma[ch] * xhat[k] + beta[ch];
                }
            }
        }
        let m = (n * hw) as f32;
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * hw;
                for k in base..base + hw {
                    sum_dy[ch] += go[k] as f64;
                    sum_dy_xhat[ch] += (go[k] * xhat[k]) as f64;
                }
            }
        }
        let mut dx = vec![0.0f32; x.len()];
        for img in 0..n {
            for ch in 0..c {
                let scale = gamma[ch] * inv_std[ch] / m;
                let (sd, sdx) = (sum_dy[ch] as f32, sum_dy_xhat[ch] as f32);
                let base = (img * c + ch) * hw;
                for k in base..base + hw {
                    dx[k] = scale * (m * go[k] - sd - xhat[k] * sdx);
                }
            }
        }
        let narrow = |v: Vec<f64>| v.into_iter().map(|s| s as f32).collect();
        [y, dx, narrow(sum_dy_xhat), narrow(sum_dy)]
    }

    #[test]
    fn fused_and_interleaved_passes_match_the_serial_layer_bit_for_bit() {
        let same = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let mut rng = seeded(41);
        for n in [1, 3, 4, 5, 32] {
            for c in [1, 3, 4, 6, 16] {
                for (h, w) in [(1, 1), (3, 3), (8, 8)] {
                    let dims = [n, c, h, w];
                    let plain_x = normal(&dims, 2.0, &mut rng);
                    let plain_go = normal(&dims, 1.0, &mut rng);
                    let gamma = normal(&[c], 1.0, &mut rng);
                    let beta = normal(&[c], 1.0, &mut rng);
                    // A special value at the first and the last element of
                    // the input, then of the gradient.
                    let mut cases = vec![(plain_x.clone(), plain_go.clone())];
                    let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                    for special in specials {
                        let last = plain_x.len() - 1;
                        let (mut x, mut go) = (plain_x.clone(), plain_go.clone());
                        (x.data_mut()[0], x.data_mut()[last]) = (special, special);
                        cases.push((x, plain_go.clone()));
                        (go.data_mut()[0], go.data_mut()[last]) = (special, special);
                        cases.push((plain_x.clone(), go));
                    }
                    for (x, go) in &cases {
                        let at = format!("{dims:?}");
                        let mut bn = BatchNorm2d::new("bn", c, ParamPrecision::Float32);
                        let bn = bn.as_mut().unwrap();
                        let float = crate::ParamStore::Float;
                        bn.gamma.set_store(float(gamma.clone())).unwrap();
                        bn.beta.set_store(float(beta.clone())).unwrap();

                        let (mean, var) = reduce::channel_mean_var(x).unwrap();
                        let [y, dx, dgamma, dbeta] = serial_layer(
                            (n, c, h * w),
                            x.data(),
                            go.data(),
                            (mean.data(), var.data()),
                            (gamma.data(), beta.data()),
                        );
                        let got_y = bn.forward(x, Mode::Train).unwrap();
                        assert!(same(got_y.data(), &y), "y at {at}");
                        let got_dx = bn.backward(go).unwrap();
                        assert!(same(got_dx.data(), &dx), "dx at {at}");
                        assert!(same(bn.gamma.grad().data(), &dgamma), "dγ at {at}");
                        assert!(same(bn.beta.grad().data(), &dbeta), "dβ at {at}");

                        // Evaluation: the same pass without the x̂ store.
                        let stats = (bn.running_mean.data(), bn.running_var.data());
                        let [y_eval, ..] = serial_layer(
                            (n, c, h * w),
                            x.data(),
                            go.data(),
                            stats,
                            (gamma.data(), beta.data()),
                        );
                        let got = bn.forward(x, Mode::Eval).unwrap();
                        assert!(same(got.data(), &y_eval), "Mode::Eval y at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn misuse_errors() {
        assert!(BatchNorm2d::new("z", 0, ParamPrecision::Float32).is_err());
        let mut bn = BatchNorm2d::new("bn", 2, ParamPrecision::Float32).unwrap();
        assert!(bn
            .forward(&Tensor::zeros(&[1, 3, 2, 2]), Mode::Train)
            .is_err());
        assert!(bn.backward(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
        let _ = bn
            .forward(&Tensor::zeros(&[1, 2, 2, 2]), Mode::Train)
            .unwrap();
        assert!(bn.backward(&Tensor::zeros(&[1, 2, 3, 3])).is_err());
    }
}
