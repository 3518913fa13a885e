//! Architectures nobody hand-wrote: a seeded generator stacks every layer
//! kind, with `Sequential` and `Residual` nested to depth 2, and every
//! network it draws must keep the contracts the hand-built backbones keep —
//! eval forward is inference, the frozen plan agrees with it, a checkpoint
//! round trip is byte-stable, MACs and parameters are visited once, and
//! one backward reaches every parameter.

use apt_nn::layers::{
    ActQuant, AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Relu6, Residual,
    Sequential, ZeroPad2d,
};
use apt_nn::{checkpoint, KernelLane, Layer, Mode, Network, ParamPrecision};
use apt_quant::{Bitwidth, RoundingMode};
use apt_tensor::ops::fused::Epilogue;
use apt_tensor::rng::{normal, seeded};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// `freeze.rs`'s tolerance for plans that fold a batch norm.
const REL_TOL: f32 = 1e-4;

type Layers = Vec<Box<dyn Layer>>;

/// The per-sample value flowing between two layers.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Shape {
    Map { c: usize, hw: usize },
    Flat(usize),
}

/// Draws one architecture. Every choice and every weight comes from one
/// rng, so the same seed builds the same network, names included.
struct Gen {
    rng: StdRng,
    /// 0: fp32 weights, 1: per-tensor codes (`paper_apt`), 2: per-channel.
    scheme: u64,
    layers: usize,
    /// The last layer drawn was a convolution: a batch norm now would fold
    /// into it when the network is frozen.
    after_conv: bool,
    /// A batch norm folded somewhere upstream. The fold moves values by a
    /// rounding error, which an activation quantiser downstream could turn
    /// into a whole grid step, so none is drawn from here on.
    folded: bool,
    /// The value is an activation quantiser's output, not yet mixed by a
    /// conv, linear or average pool: a max pool would pick its saturated
    /// elements, whose straight-through gradient is zero, and a second
    /// quantiser could find none of its few levels inside its clip.
    saturated: bool,
}

impl Gen {
    fn name(&mut self, kind: &str) -> String {
        self.layers += 1;
        format!("{kind}{}", self.layers)
    }

    /// The weight precision of one layer, at its own random `k`.
    fn weights(&mut self) -> ParamPrecision {
        let k = Bitwidth::new(self.rng.gen_range(2..=12)).unwrap();
        match self.scheme {
            0 => ParamPrecision::Float32,
            1 => ParamPrecision::Quantized(k),
            _ => ParamPrecision::PerChannel(k),
        }
    }

    /// Bias-free, like every conv in the zoo: a batch norm behind it would
    /// zero a bias's gradient.
    fn conv(&mut self, c: usize, out: usize, k: usize, stride: usize, groups: usize) -> Conv2d {
        self.saturated = false;
        let (name, wp) = (self.name("conv"), self.weights());
        Conv2d::new(
            name,
            c,
            out,
            k,
            stride,
            k / 2,
            groups,
            wp,
            None,
            &mut self.rng,
        )
        .unwrap()
    }

    /// A batch norm; `after_conv` when it directly follows a convolution,
    /// which a frozen plan folds it into.
    fn bn(&mut self, c: usize, after_conv: bool) -> Box<dyn Layer> {
        self.folded |= after_conv;
        let bn = BatchNorm2d::new(self.name("bn"), c, ParamPrecision::Float32);
        Box::new(bn.unwrap())
    }

    fn linear(&mut self, f: usize, out: usize) -> Linear {
        self.saturated = false;
        let (name, wp) = (self.name("fc"), self.weights());
        let bias = self.rng.gen_bool(0.5).then_some(ParamPrecision::Float32);
        Linear::new(name, f, out, wp, bias, &mut self.rng).unwrap()
    }

    /// `len` draws from `shape` on, which they move along. Inside a
    /// residual body a value keeps its rank and never grows (no flatten, no
    /// pad), so a projection can always meet it; composites nest while
    /// `depth < 2`.
    fn chain(&mut self, depth: usize, shape: &mut Shape, len: usize, body: bool) -> Layers {
        let mut layers: Layers = Vec::new();
        for _ in 0..len {
            let pick = self.rng.gen_range(0..12);
            let after_conv = std::mem::take(&mut self.after_conv);
            let layer: Box<dyn Layer> = match (pick, *shape) {
                (0 | 1, _) if depth < 2 => {
                    let len = self.rng.gen_range(1..=3);
                    self.after_conv = after_conv;
                    if self.rng.gen_bool(0.5) {
                        self.residual(depth, shape, len)
                    } else {
                        let name = self.name("seq");
                        let inner = self.chain(depth + 1, shape, len, body);
                        Box::new(Sequential::new(name, inner))
                    }
                }
                (2, _) => Box::new(Relu::new(self.name("relu"))),
                (3, _) => Box::new(Relu6::new(self.name("relu6"))),
                (4, Shape::Map { c, .. }) if !after_conv && !self.folded && !self.saturated => {
                    // Behind a batch norm in training mode every channel of
                    // a batch of 8 has an element ≥ 1/√7 > α, so the clip
                    // always receives a gradient.
                    layers.push(self.bn(c, false));
                    let k = Bitwidth::new(self.rng.gen_range(2..=8)).unwrap();
                    let alpha = self.rng.gen_range(0.1f32..0.35);
                    self.saturated = true;
                    Box::new(ActQuant::new(self.name("aq"), k, alpha).unwrap())
                }
                (5, Shape::Map { c, .. }) => self.bn(c, after_conv),
                (6, Shape::Map { c, hw }) if hw.is_multiple_of(2) && hw >= 4 => {
                    *shape = Shape::Map { c, hw: hw / 2 };
                    if !self.saturated && self.rng.gen_bool(0.5) {
                        Box::new(MaxPool2d::new(self.name("maxpool"), 2))
                    } else {
                        self.saturated = false;
                        Box::new(AvgPool2d::new(self.name("avgpool"), 2))
                    }
                }
                (7, Shape::Map { c, hw }) if !body && hw <= 8 => {
                    *shape = Shape::Map { c, hw: hw + 2 };
                    Box::new(ZeroPad2d::new(self.name("pad"), 1).unwrap())
                }
                (8, Shape::Map { c, hw }) if !body => {
                    layers.push(Box::new(Flatten::new(self.name("flatten"))));
                    *shape = Shape::Flat(c * hw * hw);
                    continue;
                }
                (_, Shape::Map { c, hw }) => {
                    let same = self.rng.gen_bool(0.4);
                    let out = if same { c } else { self.rng.gen_range(2..=6) };
                    let depthwise = out == c && self.rng.gen_bool(0.5);
                    // A 1×1 depthwise filter is one weight per channel: on a
                    // non-negative input a ReLU behind it dies with its sign.
                    let k = [1, 3][usize::from(depthwise || self.rng.gen_bool(0.5))];
                    let halve = hw.is_multiple_of(2) && hw >= 4 && self.rng.gen_bool(0.3);
                    let s = if halve { 2 } else { 1 };
                    *shape = Shape::Map { c: out, hw: hw / s };
                    let conv = self.conv(c, out, k, s, if depthwise { c } else { 1 });
                    self.after_conv = true;
                    Box::new(conv)
                }
                (_, Shape::Flat(f)) => {
                    let out = self.rng.gen_range(2..=8);
                    *shape = Shape::Flat(out);
                    Box::new(self.linear(f, out))
                }
            };
            layers.push(layer);
        }
        layers
    }

    /// `act(body(x) + shortcut(x))`: an identity shortcut only where the
    /// body kept the shape, else a 1×1 conv (+ BN) or linear projection.
    fn residual(&mut self, depth: usize, shape: &mut Shape, len: usize) -> Box<dyn Layer> {
        let (name, entry) = (self.name("res"), *shape);
        let body = Sequential::new(&name, self.chain(depth + 1, shape, len, true));
        let shortcut = if *shape == entry && self.rng.gen_bool(0.5) {
            None
        } else {
            let mut projection: Layers = Vec::new();
            match (entry, *shape) {
                (Shape::Map { c, hw }, Shape::Map { c: out, hw: end }) => {
                    projection.push(Box::new(self.conv(c, out, 1, hw / end, 1)));
                    if self.rng.gen_bool(0.5) {
                        projection.push(self.bn(out, true));
                    }
                }
                (Shape::Flat(f), Shape::Flat(out)) => {
                    projection.push(Box::new(self.linear(f, out)))
                }
                _ => unreachable!("a residual body keeps its value's rank"),
            }
            Some(Sequential::new(format!("{name}.shortcut"), projection))
        };
        let act = [Epilogue::None, Epilogue::Relu, Epilogue::Relu6][self.rng.gen_range(0..3)];
        (self.after_conv, self.saturated) = (false, false);
        Box::new(Residual::new(body, shortcut, act))
    }
}

/// The network `seed` draws and the batch dims it takes: a 2–5 draw chain
/// on a batch of eight `[c, 8, 8]` images, then a linear layer to three
/// outputs.
fn arch(seed: u64) -> (Network, Vec<usize>) {
    let mut g = Gen {
        rng: seeded(seed),
        scheme: seed % 3,
        layers: 0,
        after_conv: false,
        folded: false,
        saturated: false,
    };
    let c = g.rng.gen_range(2..=3);
    let mut shape = Shape::Map { c, hw: 8 };
    let len = g.rng.gen_range(2..=5);
    let mut layers = g.chain(0, &mut shape, len, false);
    let f = match shape {
        Shape::Map { c, hw } => {
            layers.push(Box::new(Flatten::new("head.flatten")));
            c * hw * hw
        }
        Shape::Flat(f) => f,
    };
    layers.push(Box::new(g.linear(f, 3)));
    (Network::new(format!("gen{seed}"), layers), vec![8, c, 8, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_architectures_keep_the_layer_contracts(seed in 0u64..1_000_000) {
        let (mut net, dims) = arch(seed);
        let desc = format!("seed {seed}: {net:?}");

        let mut names = Vec::new();
        net.visit_params_ref(&mut |p| names.push(p.name().to_string()));
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(unique.len(), names.len(), "{}: duplicate names {:?}", desc, names);

        let x = normal(&dims, 1.0, &mut seeded(seed ^ 0x5eed));
        let y = net.forward(&x, Mode::Train).unwrap();
        let mut macs = 0;
        net.visit_compute(&mut |_, m| macs += m);
        prop_assert!(macs > 0 && macs == net.macs_last_forward(), "{}: {} MACs visited", desc, macs);

        net.backward(&normal(y.dims(), 1.0, &mut seeded(seed + 1))).unwrap();
        let mut dead = Vec::new();
        net.visit_params_ref(&mut |p| {
            if p.grad().data().iter().all(|&g| g == 0.0) {
                dead.push(p.name().to_string());
            }
        });
        prop_assert!(dead.is_empty(), "{}: no gradient reached {:?}", desc, dead);
        // One step, so the checkpoint below holds trained values.
        let mut r = seeded(seed + 2);
        net.visit_params(&mut |p| {
            let g = p.grad().clone();
            p.apply_update(&g, 0.05, RoundingMode::Stochastic, &mut r).unwrap();
        });

        let eval = net.forward(&x, Mode::Eval).unwrap();

        let mut has_bn = false;
        net.visit_buffers(&mut |_, _| has_bn = true);
        let got = net.freeze(&dims[1..], KernelLane::DequantCache).unwrap().infer(&x).unwrap();
        prop_assert_eq!(got.dims(), eval.dims());
        for (e, g) in eval.data().chunks(3).zip(got.data().chunks(3)) {
            let scale = e.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            let close = |(e, g): (&f32, &f32)| {
                if has_bn { (e - g).abs() <= REL_TOL * scale } else { e.to_bits() == g.to_bits() }
            };
            prop_assert!(e.iter().zip(g).all(close), "{}: plan {:?}, eval {:?}", desc, g, e);
        }

        let blob = checkpoint::save_full(&mut net);
        let mut fresh = arch(seed).0;
        checkpoint::load(&mut fresh, &blob).unwrap();
        prop_assert!(checkpoint::save_full(&mut fresh) == blob, "{}: round trip moved bytes", desc);
        // The trained step and statistics differ from the fresh build's: a
        // parameter or buffer the checkpoint skipped shows up here.
        let restored = fresh.forward(&x, Mode::Eval).unwrap();
        prop_assert_eq!(restored.data(), eval.data(), "{}: the checkpoint lost state", desc);
    }
}
