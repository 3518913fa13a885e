//! Lowering surface: layers append typed steps through a [`PlanBuilder`].

use super::exec::FrozenPlan;
use super::step::{Step, StepKind, ValueId, WeightSlot};
use super::{arena, optimize, PlanReport};
use crate::{KernelLane, NnError, Param, ParamStore, Result};
use apt_quant::WeightPanel;
use apt_tensor::ops::conv::Conv2dParams;
use apt_tensor::ops::fused::Epilogue;

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
    lane: KernelLane,
    steps: Vec<Step>,
    /// Per-sample dims of each value.
    values: Vec<Vec<usize>>,
    current: ValueId,
    /// Achieved lane per weight-carrying step.
    weight_lanes: Vec<KernelLane>,
    packed_panels: usize,
    /// Name of the layer currently lowering, for error attribution.
    layer: String,
}

impl PlanBuilder {
    /// Starts a plan for inputs of per-sample shape `sample_dims`,
    /// targeting kernel `lane`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty or zero-sized shape.
    pub fn new(sample_dims: &[usize], lane: KernelLane) -> Result<Self> {
        if sample_dims.is_empty() || sample_dims.contains(&0) {
            return Err(NnError::BadConfig {
                reason: format!("invalid plan input shape {sample_dims:?}"),
            });
        }
        Ok(PlanBuilder {
            lane,
            steps: Vec::new(),
            values: vec![sample_dims.to_vec()],
            current: ValueId(0),
            weight_lanes: Vec::new(),
            packed_panels: 0,
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

    /// Lowers a fully-connected layer `y = x·Wᵀ (+ b)`. Under an
    /// [`KernelLane::IntGemm`] request integer storage packs a
    /// [`WeightPanel`] here; anything else dequantises once into an f32
    /// slot.
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
        // A panel needs integer storage, `k ≤ 16` and rows short enough for
        // the `i8` dot tier; every other weight, and every other lane, takes
        // the f32 slot (a frozen plan never re-dequantises per forward).
        let panel = match (self.lane, weight.store()) {
            (KernelLane::IntGemm, ParamStore::Quantized(q)) => {
                WeightPanel::from_quantized(q, out_f, in_f)
            }
            _ => None,
        };
        let dequant = weight.value().into_vec();
        let slot = match panel {
            Some(panel) => {
                self.packed_panels += 1;
                self.weight_lanes.push(KernelLane::IntGemm);
                WeightSlot::Int { panel, dequant }
            }
            None => {
                self.weight_lanes
                    .push(self.lane.weakest(KernelLane::DequantCache));
                WeightSlot::F32(dequant)
            }
        };
        let bias = bias.map(|b| b.value().into_vec());
        self.push_step(
            StepKind::Linear {
                weight: slot,
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
        // Conv always compiles f32 weights (see `StepKind::Conv::weight`);
        // under an IntGemm request it contributes a DequantCache arm.
        self.weight_lanes
            .push(self.lane.weakest(KernelLane::DequantCache));
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

    /// Lowers a PACT fake-quantisation step with clip `alpha` and grid
    /// step `eps`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] for a non-finite or non-positive
    /// grid.
    pub fn push_act_quant(&mut self, alpha: f32, eps: f32) -> Result<()> {
        if !alpha.is_finite() || !eps.is_finite() || eps <= 0.0 {
            return Err(self.unfreezable(format!(
                "activation quantiser grid is degenerate (alpha {alpha}, eps {eps})"
            )));
        }
        let dims = self.current_dims().to_vec();
        self.push_step(StepKind::ActQuant { alpha, eps }, dims);
        Ok(())
    }

    /// Lowers spatial zero padding on the current `[c,h,w]` value.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] for a non-spatial value or a zero
    /// padding.
    pub fn push_pad(&mut self, pad: usize) -> Result<()> {
        let dims = self.current_dims();
        if dims.len() != 3 {
            return Err(self.unfreezable(format!("pad expects a [c,h,w] value, got {dims:?}")));
        }
        if pad == 0 {
            return Err(self.unfreezable("padding must be positive".to_string()));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        self.push_step(
            StepKind::Pad {
                channels: c,
                h,
                w,
                pad,
            },
            vec![c, h + 2 * pad, w + 2 * pad],
        );
        Ok(())
    }

    /// Lowers a flatten: pure metadata, no step — the value's dims
    /// collapse to one axis in place.
    pub fn push_flatten(&mut self) {
        let flat: usize = self.current_dims().iter().product();
        self.values[self.current.0] = vec![flat];
    }

    fn pool_geometry(&self, k: usize) -> Result<(usize, usize, usize)> {
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
        Ok((c, h, w))
    }

    /// Lowers non-overlapping max pooling with window `k`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] unless `k` divides both spatial
    /// dims (the same contract the layer enforces at runtime).
    pub fn push_max_pool(&mut self, k: usize) -> Result<()> {
        let (c, h, w) = self.pool_geometry(k)?;
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

    /// Lowers non-overlapping average pooling with window `k`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`] unless `k` divides both spatial
    /// dims.
    pub fn push_avg_pool(&mut self, k: usize) -> Result<()> {
        let (c, h, w) = self.pool_geometry(k)?;
        self.push_step(
            StepKind::AvgPool {
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
            lane,
            mut steps,
            values,
            current,
            weight_lanes,
            packed_panels,
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
        let achieved = weight_lanes.iter().fold(lane, |acc, &l| acc.weakest(l));
        let value_len: Vec<usize> = values.iter().map(|d| d.iter().product()).collect();
        let layout = arena::plan(&steps, &value_len, output_value);
        let report = PlanReport {
            lowered_steps,
            steps: steps.len(),
            bn_folds: counters.bn_folds,
            act_fusions: counters.act_fusions,
            quant_elims: counters.quant_elims,
            pad_folds: counters.pad_folds,
            packed_panels,
            arena_floats_per_sample: layout.arena_len,
            lane: achieved,
        };
        Ok(FrozenPlan::assemble(
            steps,
            values,
            value_len,
            layout,
            output_value,
            achieved,
            report,
        ))
    }
}
