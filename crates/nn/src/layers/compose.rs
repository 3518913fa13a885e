use super::activation::RegionMask;
use crate::layer::take_stash;
use crate::plan::PlanBuilder;
use crate::{Layer, Mode, NnError, Param};
use apt_tensor::ops::fused::Epilogue;
use apt_tensor::{ops, Tensor};

/// Layers run one after another under one name: the body of a
/// [`crate::Network`], the branches of a [`Residual`], and any block that
/// is a plain chain. Every [`Layer`] method visits the children in order
/// (`backward` in reverse), so a composite built from it needs no loop of
/// its own.
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

/// Threads `input` through `steps`: the first step reads the borrowed
/// tensor itself, every later one the tensor the step before it produced.
/// `None` when there was no step.
fn thread<L>(
    steps: impl Iterator<Item = L>,
    input: &Tensor,
    mut step: impl FnMut(L, &Tensor) -> crate::Result<Tensor>,
) -> crate::Result<Option<Tensor>> {
    let mut x = None;
    for s in steps {
        x = Some(step(s, x.as_ref().unwrap_or(input))?);
    }
    Ok(x)
}

impl Sequential {
    /// Chains `layers` under `name`. An empty chain is the identity.
    pub fn new(name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential {
            name: name.into(),
            layers,
        }
    }

    /// Number of direct children (a composite child counts as one).
    pub(crate) fn len(&self) -> usize {
        self.layers.len()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field("layers", &names)
            .finish()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let y = thread(self.layers.iter_mut(), input, |l, x| l.forward(x, mode))?;
        Ok(y.unwrap_or_else(|| input.clone()))
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let y = thread(self.layers.iter(), input, |l, x| l.forward_inference(x))?;
        Ok(y.unwrap_or_else(|| input.clone()))
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let g = thread(self.layers.iter_mut().rev(), grad_output, |l, g| {
            l.backward(g)
        })?;
        Ok(g.unwrap_or_else(|| grad_output.clone()))
    }

    /// Stops at the first child that has parameters, which runs its own
    /// `backward_params`; the parameter-free children in front of it (an
    /// MLP's `Flatten`) do not run at all, and every child behind it runs
    /// `backward`. A chain without parameters stops at its first child.
    fn backward_params(&mut self, grad_output: &Tensor) -> crate::Result<()> {
        let has_params = |l: &dyn Layer| {
            let mut any = false;
            l.visit_params_ref(&mut |_| any = true);
            any
        };
        let stop = self.layers.iter().position(|l| has_params(l.as_ref()));
        let Some((first, behind)) = self.layers[stop.unwrap_or(0)..].split_first_mut() else {
            return Ok(());
        };
        let g = thread(behind.iter_mut().rev(), grad_output, |l, g| l.backward(g))?;
        first.backward_params(g.as_ref().unwrap_or(grad_output))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.layers.iter_mut().for_each(|l| l.visit_params(f));
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.layers.iter().for_each(|l| l.visit_params_ref(f));
    }

    fn macs_last_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.macs_last_forward()).sum()
    }

    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        self.layers.iter().for_each(|l| l.visit_compute(f));
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.layers.iter_mut().for_each(|l| l.visit_buffers(f));
    }

    fn lower(&self, builder: &mut PlanBuilder) -> crate::Result<()> {
        for layer in &self.layers {
            builder.set_layer(layer.name());
            layer.lower(builder)?;
        }
        Ok(())
    }
}

/// A residual block: `act(body(x) + shortcut(x))`, where a `None`
/// shortcut is the identity. Named by its body.
///
/// The ResNet basic block (He et al. \[6\]) is a `Residual` with a ReLU
/// after the merge and, where the shape changes, a 1×1 conv + batch-norm
/// projection as its shortcut; a MobileNetV2 inverted-residual block with
/// a skip (Sandler et al. \[17\]) is one with no activation after the merge
/// — the linear bottleneck. Each branch's layers carry their own
/// independently adaptable weights.
#[derive(Debug)]
pub struct Residual {
    body: Sequential,
    shortcut: Option<Sequential>,
    act: Epilogue,
    /// Where the pre-activation sum of the last training forward fell
    /// against `act`, until the backward that reads it. Not kept when `act`
    /// is `None`.
    mask: Option<RegionMask>,
}

impl Residual {
    /// Builds `act(body(x) + shortcut(x))`; `None` is the identity
    /// shortcut.
    pub fn new(body: Sequential, shortcut: Option<Sequential>, act: Epilogue) -> Self {
        Residual {
            body,
            shortcut,
            act,
            mask: None,
        }
    }

    /// The body, then the shortcut unless it is the identity: the order
    /// every visitor walks.
    fn branches(&self) -> impl Iterator<Item = &Sequential> {
        std::iter::once(&self.body).chain(&self.shortcut)
    }

    fn branches_mut(&mut self) -> impl Iterator<Item = &mut Sequential> {
        std::iter::once(&mut self.body).chain(&mut self.shortcut)
    }

    /// `main + side`, the merge's float order in every pass.
    fn add(&self, main: &Tensor, side: &Tensor) -> crate::Result<Tensor> {
        ops::add(main, side).map_err(|e| NnError::BadInput {
            layer: self.name().to_string(),
            reason: format!("residual add failed: {e}"),
        })
    }
}

impl Layer for Residual {
    fn name(&self) -> &str {
        self.body.name()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let main = self.body.forward(input, mode)?;
        let side = self
            .shortcut
            .as_mut()
            .map(|s| s.forward(input, mode))
            .transpose()?;
        let mut out = self.add(&main, side.as_ref().unwrap_or(input))?;
        if self.act != Epilogue::None {
            self.mask = Some(RegionMask::clamp(&mut out, self.act == Epilogue::Relu6));
        }
        Ok(out)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let main = self.body.forward_inference(input)?;
        let side = self
            .shortcut
            .as_ref()
            .map(|s| s.forward_inference(input))
            .transpose()?;
        let mut out = self.add(&main, side.as_ref().unwrap_or(input))?;
        self.act.apply(out.data_mut());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let masked = match self.act {
            Epilogue::None => None,
            _ => {
                let mask = take_stash(&mut self.mask, self.body.name())?;
                Some(mask.pass(grad_output)?)
            }
        };
        let dsum = masked.as_ref().unwrap_or(grad_output);
        let dx_main = self.body.backward(dsum)?;
        let dx_side = self
            .shortcut
            .as_mut()
            .map(|s| s.backward(dsum))
            .transpose()?;
        Ok(ops::add(&dx_main, dx_side.as_ref().unwrap_or(dsum))?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.branches_mut().for_each(|b| b.visit_params(f));
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.branches().for_each(|b| b.visit_params_ref(f));
    }

    fn macs_last_forward(&self) -> u64 {
        self.branches().map(|b| b.macs_last_forward()).sum()
    }

    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        self.branches().for_each(|b| b.visit_compute(f));
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.branches_mut().for_each(|b| b.visit_buffers(f));
    }

    fn lower(&self, builder: &mut PlanBuilder) -> crate::Result<()> {
        let entry = builder.current_value();
        self.body.lower(builder)?;
        let main = builder.current_value();
        let side = match &self.shortcut {
            Some(s) => {
                builder.branch_from(entry)?;
                s.lower(builder)?;
                builder.current_value()
            }
            None => entry,
        };
        builder.branch_from(main)?;
        builder.set_layer(self.name());
        builder.push_add(side, self.act)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::layers::Conv2d;
    use crate::ParamPrecision;
    use apt_tensor::rng::{normal, seeded};

    /// Asserts `layer`'s `∂L/∂input` against central finite differences of
    /// `L = Σ y·g` at input elements `ks`, for a random `x` of `dims` and a
    /// random `g`.
    pub(crate) fn assert_input_gradient(layer: &mut dyn Layer, dims: &[usize], ks: [usize; 3]) {
        let x = normal(dims, 1.0, &mut seeded(4));
        let y = layer.forward(&x, Mode::Train).unwrap();
        let go = normal(y.dims(), 1.0, &mut seeded(5));
        let dx = layer.backward(&go).unwrap();
        let eps = 1e-2;
        let mut loss = |x: &Tensor| -> f32 {
            let y = layer.forward(x, Mode::Train).unwrap();
            y.data().iter().zip(go.data()).map(|(a, c)| a * c).sum()
        };
        for k in ks {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let an = dx.data()[k];
            assert!((fd - an).abs() < 0.1, "k={k} fd={fd} an={an}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference_for_every_act() {
        // The ResNet and MobileNetV2 builders' tests cover the identity
        // shortcut under ReLU and under no activation.
        for act in [Epilogue::None, Epilogue::Relu, Epilogue::Relu6] {
            let mut r = seeded(3);
            let fp = ParamPrecision::Float32;
            let mut conv = |n: &str| {
                let conv = Conv2d::new(n, 2, 2, 3, 1, 1, 1, fp, Some(fp), &mut r).unwrap();
                Sequential::new(n, vec![Box::new(conv)])
            };
            let mut b = Residual::new(conv("body"), Some(conv("shortcut")), act);
            assert_input_gradient(&mut b, &[1, 2, 4, 4], [1, 11, 23]);
        }
    }
}
