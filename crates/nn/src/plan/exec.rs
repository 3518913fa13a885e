//! The immutable compiled plan and its allocation-free executor.

use super::arena::Layout;
use super::step::{Step, StepKind, ValueId};
use super::PlanReport;
use crate::{NnError, Result};
use apt_quant::fake;
use apt_tensor::ops::fused;
use apt_tensor::Tensor;

/// A compiled, fused, arena-planned inference program.
///
/// Produced by [`Network::freeze`](crate::Network::freeze). The plan is
/// immutable and `Send + Sync`: serving threads share one plan through an
/// `Arc` and bring their own scratch arena, so steady-state execution
/// performs **zero heap allocations per request** (the arena is grown
/// once to the compile-time size and then reused).
#[derive(Debug)]
pub struct FrozenPlan {
    steps: Vec<Step>,
    /// Per-sample f32 offset of each value in the arena.
    value_off: Vec<usize>,
    /// Per-sample f32 length of each value.
    value_len: Vec<usize>,
    /// Values executed in place on their operand's region.
    aliased: Vec<bool>,
    /// Arena length per sample, in f32 elements.
    arena_len: usize,
    sample_len: usize,
    output_dims: Vec<usize>,
    output_len: usize,
    output_value: ValueId,
    report: PlanReport,
}

impl FrozenPlan {
    pub(crate) fn assemble(
        steps: Vec<Step>,
        values: Vec<Vec<usize>>,
        value_len: Vec<usize>,
        layout: Layout,
        output_value: ValueId,
        report: PlanReport,
    ) -> Self {
        let output_dims = values[output_value.0].clone();
        let sample_len = value_len[0];
        let output_len = value_len[output_value.0];
        FrozenPlan {
            steps,
            value_off: layout.value_off,
            value_len,
            aliased: layout.aliased,
            arena_len: layout.arena_len,
            sample_len,
            output_dims,
            output_len,
            output_value,
            report,
        }
    }

    /// The compile-time report (step counts, folds, arena size).
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// Elements per input sample.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Elements per output sample.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Scratch arena size per sample, in f32 elements.
    pub fn arena_floats_per_sample(&self) -> usize {
        self.arena_len
    }

    /// Short mnemonics of the compiled steps, in execution order — used
    /// by the `apt freeze` report and the differential tests to assert
    /// which fusions fired.
    pub fn step_mnemonics(&self) -> Vec<&'static str> {
        self.steps.iter().map(|s| s.kind.mnemonic()).collect()
    }

    /// Bytes the plan keeps resident: fused weights, biases and folded
    /// BatchNorm parameters. Counted into the
    /// serving registry's budget alongside the network parameters.
    pub fn resident_bytes(&self) -> u64 {
        let mut total = 0u64;
        for s in &self.steps {
            total += match &s.kind {
                StepKind::Linear { weight, bias, .. } | StepKind::Conv { weight, bias, .. } => {
                    weight.len() as u64 * 4 + bias.as_ref().map_or(0, |b| b.len() as u64 * 4)
                }
                StepKind::Bn {
                    mean,
                    inv_std,
                    gamma,
                    beta,
                    ..
                } => (mean.len() + inv_std.len() + gamma.len() + beta.len()) as u64 * 4,
                _ => 0,
            };
        }
        total
    }

    /// Runs the plan on `n` flattened samples, writing `n·output_len`
    /// values into `output`. `arena` is the caller's scratch buffer: it
    /// is grown (once) to the compile-time size and never shrunk, so a
    /// warm caller triggers no allocation at all.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for length mismatches or `n == 0`,
    /// and propagates kernel errors.
    pub fn execute(
        &self,
        input: &[f32],
        n: usize,
        arena: &mut Vec<f32>,
        output: &mut [f32],
    ) -> Result<()> {
        if n == 0 {
            return Err(NnError::BadInput {
                layer: "<plan>".to_string(),
                reason: "batch size must be positive".to_string(),
            });
        }
        if input.len() != n * self.sample_len {
            return Err(NnError::BadInput {
                layer: "<plan>".to_string(),
                reason: format!("input length {} != {n} x {}", input.len(), self.sample_len),
            });
        }
        if output.len() != n * self.output_len {
            return Err(NnError::BadInput {
                layer: "<plan>".to_string(),
                reason: format!(
                    "output length {} != {n} x {}",
                    output.len(),
                    self.output_len
                ),
            });
        }
        let need = self.arena_len * n;
        if arena.len() < need {
            arena.resize(need, 0.0);
        }
        let buf = &mut arena[..need];
        let in_off = self.value_off[0] * n;
        buf[in_off..in_off + input.len()].copy_from_slice(input);
        for step in &self.steps {
            self.run_step(step, n, buf)?;
        }
        let out_off = self.value_off[self.output_value.0] * n;
        output.copy_from_slice(&buf[out_off..out_off + output.len()]);
        Ok(())
    }

    /// Convenience wrapper: runs the plan on a `[n, sample_dims…]` batch
    /// tensor, allocating a fresh arena and output. Serving uses
    /// [`execute`](Self::execute) with a pooled arena instead.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the batch shape does not match
    /// the compiled sample shape.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let dims = input.dims();
        if dims.is_empty() || input.len() != dims[0] * self.sample_len {
            return Err(NnError::BadInput {
                layer: "<plan>".to_string(),
                reason: format!(
                    "batch shape {dims:?} incompatible with compiled sample length {}",
                    self.sample_len
                ),
            });
        }
        let n = dims[0];
        let mut arena = Vec::new();
        let mut out = vec![0.0f32; n * self.output_len];
        self.execute(input.data(), n, &mut arena, &mut out)?;
        let mut out_dims = vec![n];
        out_dims.extend_from_slice(&self.output_dims);
        Ok(Tensor::from_vec(out, &out_dims)?)
    }

    fn region(&self, v: ValueId, n: usize) -> (usize, usize) {
        (self.value_off[v.0] * n, self.value_len[v.0] * n)
    }

    fn run_step(&self, step: &Step, n: usize, buf: &mut [f32]) -> Result<()> {
        let (s_off, s_len) = self.region(step.src, n);
        let (d_off, d_len) = self.region(step.dst, n);
        let in_place = self.aliased[step.dst.0];
        match &step.kind {
            StepKind::Linear {
                weight,
                bias,
                act,
                in_f,
                out_f,
            } => {
                let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                fused::linear_bias_act(src, weight, dst, n, *in_f, *out_f, bias.as_deref(), *act)?;
            }
            StepKind::Conv {
                weight,
                bias,
                act,
                params,
                kernel,
                c_in,
                c_out,
                h,
                width,
            } => {
                let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                fused::conv2d_bias_act(
                    src,
                    weight,
                    dst,
                    n,
                    *c_in,
                    *h,
                    *width,
                    *c_out,
                    *kernel,
                    params,
                    bias.as_deref(),
                    *act,
                )?;
            }
            StepKind::Bn {
                mean,
                inv_std,
                gamma,
                beta,
                channels,
                plane,
            } => {
                // Same per-element sequence as the layer's eval path:
                // xhat = (x-μ)·inv_std, then y = γ·xhat + β — bit-exact.
                if in_place {
                    let dst = &mut buf[d_off..d_off + d_len];
                    for (idx, chunk) in dst.chunks_mut(*plane).enumerate() {
                        let ch = idx % channels;
                        let (m, is, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
                        for v in chunk {
                            let xhat = (*v - m) * is;
                            *v = g * xhat + b;
                        }
                    }
                } else {
                    let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                    for (idx, (sc, dc)) in
                        src.chunks(*plane).zip(dst.chunks_mut(*plane)).enumerate()
                    {
                        let ch = idx % channels;
                        let (m, is, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
                        for (x, y) in sc.iter().zip(dc) {
                            let xhat = (x - m) * is;
                            *y = g * xhat + b;
                        }
                    }
                }
            }
            StepKind::Act(ep) => {
                if in_place {
                    ep.apply(&mut buf[d_off..d_off + d_len]);
                } else {
                    let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                    dst.copy_from_slice(src);
                    ep.apply(dst);
                }
            }
            StepKind::ActQuant { alpha, eps } => {
                let snap = |x: f32| fake::quantize_clipped(x, *alpha, *eps);
                if in_place {
                    for v in &mut buf[d_off..d_off + d_len] {
                        *v = snap(*v);
                    }
                } else {
                    let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                    for (x, y) in src.iter().zip(dst) {
                        *y = snap(*x);
                    }
                }
            }
            StepKind::MaxPool { channels, h, w, k } => {
                let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                fused::max_pool2d_into(src, dst, n * channels, *h, *w, *k)?;
            }
            StepKind::GlobalAvgPool { channels, h, w } => {
                let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                fused::global_avg_pool_into(src, dst, n * channels, *h, *w)?;
            }
            StepKind::Add { rhs, act } => {
                // dst = src; dst += rhs; act(dst) — element-wise, so the
                // result is bit-identical to ops::add + map on the layer
                // path.
                {
                    let (src, dst) = rw(buf, s_off, s_len, d_off, d_len);
                    dst.copy_from_slice(src);
                }
                let (r_off, r_len) = self.region(*rhs, n);
                let (r, dst) = rw(buf, r_off, r_len, d_off, d_len);
                for (y, x) in dst.iter_mut().zip(r) {
                    *y += x;
                }
                act.apply(dst);
            }
        }
        Ok(())
    }
}

/// Splits one arena buffer into a read region and a disjoint write
/// region. The arena planner guarantees a step's destination never
/// overlaps a live operand, so the two regions are strictly ordered.
fn rw(
    buf: &mut [f32],
    r_off: usize,
    r_len: usize,
    w_off: usize,
    w_len: usize,
) -> (&[f32], &mut [f32]) {
    debug_assert!(
        r_off + r_len <= w_off || w_off + w_len <= r_off,
        "overlapping arena regions: read [{r_off}, +{r_len}) write [{w_off}, +{w_len})"
    );
    if r_off + r_len <= w_off {
        let (lo, hi) = buf.split_at_mut(w_off);
        (&lo[r_off..r_off + r_len], &mut hi[..w_len])
    } else {
        let (lo, hi) = buf.split_at_mut(r_off);
        (&hi[..r_len], &mut lo[w_off..w_off + w_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_splits_both_orders() {
        let mut buf: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let (r, w) = rw(&mut buf, 0, 3, 5, 4);
        assert_eq!(r, &[0.0, 1.0, 2.0]);
        assert_eq!(w.len(), 4);
        w[0] = 99.0;
        assert_eq!(buf[5], 99.0);
        let (r, w) = rw(&mut buf, 6, 4, 1, 3);
        assert_eq!(r[0], 6.0);
        assert_eq!(w.len(), 3);
    }
}
