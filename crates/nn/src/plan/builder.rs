//! Lowering surface: layers append typed steps through a [`PlanBuilder`].

use super::exec::FrozenPlan;
use super::step::{Step, StepKind, ValueId};
use super::{arena, optimize, PlanReport};
use crate::{NnError, Param, Result};
use apt_tensor::ops::conv::Conv2dParams;
use apt_tensor::ops::fused::Epilogue;
use apt_tensor::ops::transpose;

/// Incrementally builds a frozen plan while layers lower themselves.
///
/// The builder tracks a *current value* (the would-be activation tensor
/// flowing through the network, per sample, without the batch dimension).
/// Sequential layers consume the current value and define a new one;
/// composite layers snapshot a [`ValueId`] before a branch, rewind with
/// [`branch_from`](Self::branch_from), and merge with
/// [`push_add`](Self::push_add).
#[derive(Debug)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    /// Per-sample dims of each value.
    values: Vec<Vec<usize>>,
    current: ValueId,
    /// Name of the layer currently lowering, for error attribution.
    layer: String,
}

impl PlanBuilder {
    /// Starts a plan for inputs of per-sample shape `sample_dims`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty or zero-sized shape.
    pub fn new(sample_dims: &[usize]) -> Result<Self> {
        if sample_dims.is_empty() || sample_dims.contains(&0) {
            return Err(NnError::BadConfig {
                reason: format!("invalid plan input shape {sample_dims:?}"),
            });
        }
        Ok(PlanBuilder {
            steps: Vec::new(),
            values: vec![sample_dims.to_vec()],
            current: ValueId(0),
            layer: String::new(),
        })
    }

    /// Records which layer is lowering, so builder errors name it.
    pub(crate) fn set_layer(&mut self, name: &str) {
        self.layer = name.to_string();
    }

    /// The value the next sequential step will consume.
    pub fn current_value(&self) -> ValueId {
        self.current
    }

    /// Per-sample dims of a value.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an unknown id.
    fn value_dims(&self, id: ValueId) -> Result<&[usize]> {
        self.values
            .get(id.0)
            .map(|d| d.as_slice())
            .ok_or(NnError::BadConfig {
                reason: format!("unknown plan value {}", id.0),
            })
    }

    /// Rewinds the current value to `id` (start of a residual branch).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an unknown id.
    pub fn branch_from(&mut self, id: ValueId) -> Result<()> {
        if id.0 >= self.values.len() {
            return Err(NnError::BadConfig {
                reason: format!("branch from unknown plan value {}", id.0),
            });
        }
        self.current = id;
        Ok(())
    }

    fn unfreezable(&self, reason: String) -> NnError {
        NnError::Unfreezable {
            layer: if self.layer.is_empty() {
                "<plan>".to_string()
            } else {
                self.layer.clone()
            },
            reason,
        }
    }

    fn current_dims(&self) -> &[usize] {
        &self.values[self.current.0]
    }

    fn push_step(&mut self, kind: StepKind, dims: Vec<usize>) -> ValueId {
        let dst = ValueId(self.values.len());
        self.values.push(dims);
        self.steps.push(Step {
            kind,
            src: self.current,
            dst,
        });
        self.current = dst;
        dst
    }

    /// Lowers a fully-connected layer `y = x·Wᵀ (+ b)`. The weight is
    /// dequantised once and stored transposed, `Wᵀ` `[in_f × out_f]`, the
    /// operand [`linear_bias_act`](apt_tensor::ops::fused::linear_bias_act)
    /// reads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] when the incoming value does not
    /// flatten to `in_f` features.
    pub fn push_linear(
        &mut self,
        weight: &Param,
        bias: Option<&Param>,
        in_f: usize,
        out_f: usize,
    ) -> Result<()> {
        let flat: usize = self.current_dims().iter().product();
        if flat != in_f {
            return Err(self.unfreezable(format!(
                "linear expects {in_f} input features, value has {flat}"
            )));
        }
        let weight = transpose(&weight.value())?.into_vec();
        let bias = bias.map(|b| b.value().into_vec());
        self.push_step(
            StepKind::Linear {
                weight,
                bias,
                act: Epilogue::None,
                in_f,
                out_f,
            },
            vec![out_f],
        );
        Ok(())
    }

    /// Lowers a 2-D convolution on the current `[c,h,w]` value.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] for rank/channel mismatches or
    /// degenerate geometry.
    pub fn push_conv(
        &mut self,
        weight: &Param,
        bias: Option<&Param>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        params: Conv2dParams,
    ) -> Result<()> {
        let dims = self.current_dims();
        if dims.len() != 3 {
            return Err(self.unfreezable(format!("conv expects a [c,h,w] value, got {dims:?}")));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let g = params.groups;
        if c != in_channels
            || params.stride == 0
            || g == 0
            || !in_channels.is_multiple_of(g)
            || !out_channels.is_multiple_of(g)
            || kernel == 0
            || h + 2 * params.padding < kernel
            || w + 2 * params.padding < kernel
        {
            return Err(self.unfreezable(format!(
                "conv geometry mismatch: value [{c},{h},{w}], {in_channels}->{out_channels} k{kernel} s{} p{} g{g}",
                params.stride, params.padding
            )));
        }
        let (oh, ow) = (params.out_size(h, kernel), params.out_size(w, kernel));
        let bias = bias.map(|b| b.value().into_vec());
        self.push_step(
            StepKind::Conv {
                weight: weight.value().into_vec(),
                bias,
                act: Epilogue::None,
                params,
                kernel,
                c_in: in_channels,
                c_out: out_channels,
                h,
                width: w,
            },
            vec![out_channels, oh, ow],
        );
        Ok(())
    }

    /// Lowers evaluation-mode BatchNorm. `inv_std` is precomputed from
    /// the running variance here so the executor never touches a sqrt.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] for rank/channel mismatches.
    pub fn push_bn(
        &mut self,
        gamma: &[f32],
        beta: &[f32],
        running_mean: &[f32],
        running_var: &[f32],
        eps: f32,
    ) -> Result<()> {
        let dims = self.current_dims();
        if dims.len() != 3 {
            return Err(
                self.unfreezable(format!("batchnorm expects a [c,h,w] value, got {dims:?}"))
            );
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if gamma.len() != c || beta.len() != c || running_mean.len() != c || running_var.len() != c
        {
            return Err(self.unfreezable(format!(
                "batchnorm channel mismatch: value has {c}, params have {}",
                gamma.len()
            )));
        }
        let inv_std: Vec<f32> = running_var
            .iter()
            .map(|&v| 1.0 / (v + eps).sqrt())
            .collect();
        self.push_step(
            StepKind::Bn {
                mean: running_mean.to_vec(),
                inv_std,
                gamma: gamma.to_vec(),
                beta: beta.to_vec(),
                channels: c,
                plane: h * w,
            },
            vec![c, h, w],
        );
        Ok(())
    }

    /// Lowers an element-wise activation.
    pub fn push_act(&mut self, act: Epilogue) {
        let dims = self.current_dims().to_vec();
        self.push_step(StepKind::Act(act), dims);
    }

    /// Lowers a flatten: pure metadata, no step — the value's dims
    /// collapse to one axis in place.
    pub fn push_flatten(&mut self) {
        let flat: usize = self.current_dims().iter().product();
        self.values[self.current.0] = vec![flat];
    }

    /// Lowers non-overlapping max pooling with window `k`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] unless `k` divides both spatial
    /// dims (the same contract the layer enforces at runtime).
    pub fn push_max_pool(&mut self, k: usize) -> Result<()> {
        let dims = self.current_dims();
        if dims.len() != 3 {
            return Err(self.unfreezable(format!("pooling expects a [c,h,w] value, got {dims:?}")));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if k == 0 || h % k != 0 || w % k != 0 {
            return Err(
                self.unfreezable(format!("pool window {k} must divide spatial dims {h}x{w}"))
            );
        }
        self.push_step(
            StepKind::MaxPool {
                channels: c,
                h,
                w,
                k,
            },
            vec![c, h / k, w / k],
        );
        Ok(())
    }

    /// Lowers global average pooling `[c,h,w] → [c]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] for a non-spatial value.
    pub fn push_global_avg_pool(&mut self) -> Result<()> {
        let dims = self.current_dims();
        if dims.len() != 3 || dims[1] * dims[2] == 0 {
            return Err(self.unfreezable(format!(
                "global pooling expects a [c,h,w] value, got {dims:?}"
            )));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        self.push_step(StepKind::GlobalAvgPool { channels: c, h, w }, vec![c]);
        Ok(())
    }

    /// Lowers a residual merge `current = act(current + rhs)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] when the operands' shapes differ.
    pub fn push_add(&mut self, rhs: ValueId, act: Epilogue) -> Result<()> {
        let rhs_dims = self.value_dims(rhs)?.to_vec();
        if rhs_dims != self.current_dims() {
            return Err(self.unfreezable(format!(
                "residual add shape mismatch: {:?} vs {rhs_dims:?}",
                self.current_dims()
            )));
        }
        let dims = self.current_dims().to_vec();
        self.push_step(StepKind::Add { rhs, act }, dims);
        Ok(())
    }

    /// Runs the optimisation pipeline and arena planner, sealing the plan.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] for an empty program (nothing
    /// lowered a step — there is no output to serve).
    pub fn finish(self) -> Result<FrozenPlan> {
        let PlanBuilder {
            mut steps,
            values,
            current,
            ..
        } = self;
        if steps.is_empty() {
            return Err(NnError::Unfreezable {
                layer: "<plan>".to_string(),
                reason: "network lowered to an empty program".to_string(),
            });
        }
        let lowered_steps = steps.len();
        let output_value = current;
        let counters = optimize::run(&mut steps, output_value);
        let value_len: Vec<usize> = values.iter().map(|d| d.iter().product()).collect();
        let layout = arena::plan(&steps, &value_len, output_value);
        let report = PlanReport {
            lowered_steps,
            steps: steps.len(),
            bn_folds: counters.bn_folds,
            act_fusions: counters.act_fusions,
            arena_floats_per_sample: layout.arena_len,
        };
        Ok(FrozenPlan::assemble(
            steps,
            values,
            value_len,
            layout,
            output_value,
            report,
        ))
    }
}
