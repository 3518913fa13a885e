//! Typed steps of a frozen plan's flat program.

use apt_tensor::ops::conv::Conv2dParams;
use apt_tensor::ops::fused::Epilogue;

/// Index of an intermediate value (per-sample buffer) in the plan.
///
/// Value 0 is always the network input; every step reads one (or, for a
/// residual merge, two) existing values and defines a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(pub(crate) usize);

/// One operation of the compiled program. Geometry is baked in at compile
/// time (per-sample); the executor scales by the batch size.
#[derive(Debug, Clone)]
pub(crate) enum StepKind {
    /// Fully-connected `y = act(x·Wᵀ + b)`.
    Linear {
        /// `Wᵀ`, `[in_f × out_f]` (k-major), dequantised once at compile
        /// time: a frozen plan never re-dequantises per forward.
        weight: Vec<f32>,
        /// Bias, possibly absorbed from a folded BatchNorm.
        bias: Option<Vec<f32>>,
        /// Fused activation epilogue.
        act: Epilogue,
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// 2-D convolution `y = act(conv(x, W) + b)` on NCHW values.
    Conv {
        /// Weight `[c_out, c_in/groups, k, k]`, flattened.
        weight: Vec<f32>,
        /// Per-output-channel bias (folded BatchNorm lands here).
        bias: Option<Vec<f32>>,
        /// Fused activation epilogue.
        act: Epilogue,
        /// Stride / padding / groups.
        params: Conv2dParams,
        /// Square kernel size.
        kernel: usize,
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Input spatial height.
        h: usize,
        /// Input spatial width.
        width: usize,
    },
    /// Evaluation-mode BatchNorm: `y = γ·((x-μ)·inv_std) + β` per channel.
    /// Exists only until the fold pass absorbs it; it survives when the
    /// producer is shared (e.g. a residual branch point) or not a conv.
    Bn {
        /// Running mean per channel.
        mean: Vec<f32>,
        /// `1/√(running_var + ε)` per channel, precomputed at compile time.
        inv_std: Vec<f32>,
        /// Scale γ per channel.
        gamma: Vec<f32>,
        /// Shift β per channel.
        beta: Vec<f32>,
        /// Channel count.
        channels: usize,
        /// Spatial plane size `h·w`.
        plane: usize,
    },
    /// Standalone element-wise activation (not yet fused into a producer).
    Act(Epilogue),
    /// Non-overlapping max pooling.
    MaxPool {
        /// Channels per sample.
        channels: usize,
        /// Input spatial height.
        h: usize,
        /// Input spatial width.
        w: usize,
        /// Window / stride.
        k: usize,
    },
    /// Global average pooling `[c,h,w] → [c]`.
    GlobalAvgPool {
        /// Channels per sample.
        channels: usize,
        /// Input spatial height.
        h: usize,
        /// Input spatial width.
        w: usize,
    },
    /// Residual merge: `dst = act(src + rhs)`.
    Add {
        /// The second operand (the branch value).
        rhs: ValueId,
        /// Activation applied after the sum (ReLU for basic blocks, none
        /// for inverted residuals).
        act: Epilogue,
    },
}

impl StepKind {
    /// Short mnemonic for plan dumps and tests.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            StepKind::Linear { .. } => "linear",
            StepKind::Conv { .. } => "conv",
            StepKind::Bn { .. } => "bn",
            StepKind::Act(_) => "act",
            StepKind::MaxPool { .. } => "maxpool",
            StepKind::GlobalAvgPool { .. } => "gap",
            StepKind::Add { .. } => "add",
        }
    }

    /// Whether this step is a pure element-wise map (candidate for
    /// in-place arena aliasing).
    pub(crate) fn is_elementwise(&self) -> bool {
        matches!(self, StepKind::Bn { .. } | StepKind::Act(_))
    }
}

/// One step: `dst = kind(src[, rhs])`.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// The operation.
    pub(crate) kind: StepKind,
    /// Primary input value.
    pub(crate) src: ValueId,
    /// Defined output value.
    pub(crate) dst: ValueId,
}
