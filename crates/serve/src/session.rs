//! Frozen inference sessions over `.aptc` checkpoints.
//!
//! An [`InferenceSession`] is the serving counterpart of the trainer: the
//! network is loaded once, kept **immutable** behind an `Arc`, and compiled
//! into a [`FrozenPlan`] — BatchNorm folded, activations fused,
//! intermediates arena-planned, weights dequantised once.
//! Quantised weights in the network itself stay resident at their physical
//! packed width (the code store is loaded verbatim from the checkpoint;
//! nothing is inflated to fp32 at rest).
//!
//! The plan is bit-exact against `forward(Mode::Eval)` for networks without
//! BatchNorm, and within float reassociation of it for folded ones. What
//! the plan keeps resident is counted by
//! [`InferenceSession::resident_bytes`], so registry eviction budgets see
//! the real footprint.
//!
//! A session is always a plan: a network that cannot freeze is refused at
//! load with the compiler's typed [`apt_nn::NnError::Unfreezable`].
//!
//! Input staging goes through a [`ScratchArena`] so steady-state request
//! handling reuses buffers instead of allocating per call.

use crate::ServeError;
use apt_nn::{checkpoint, models, FrozenPlan, Network, PlanReport, QuantScheme};
use apt_tensor::rng;
use rand::rngs::StdRng;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Which model-zoo architecture a checkpoint belongs to. A `.aptc` blob
/// stores parameters by name, not architecture, so the loader must be told
/// what to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelArch {
    /// Multilayer perceptron; `dims` is `[input, hidden…, output]`.
    Mlp(Vec<usize>),
    /// CifarNet (two conv stages + two linear layers).
    Cifarnet,
    /// VGG-small.
    VggSmall,
    /// ResNet-20.
    Resnet20,
    /// ResNet-110.
    Resnet110,
    /// MobileNetV2.
    MobilenetV2,
}

impl FromStr for ModelArch {
    type Err = ServeError;

    /// Parses `"cifarnet"`, `"vgg_small"`, `"resnet20"`, `"resnet110"`,
    /// `"mobilenet_v2"`, or `"mlp:IN-HIDDEN-…-OUT"` (e.g. `mlp:784-128-10`).
    fn from_str(s: &str) -> Result<Self, ServeError> {
        if let Some(dims) = s.strip_prefix("mlp:") {
            return match dims
                .split('-')
                .map(str::parse)
                .collect::<Result<Vec<usize>, _>>()
            {
                Ok(d) if d.len() >= 2 => Ok(ModelArch::Mlp(d)),
                _ => Err(ServeError::BadRequest {
                    reason: format!("bad mlp dims `{dims}` (want e.g. mlp:784-128-10)"),
                }),
            };
        }
        match s {
            "cifarnet" => Ok(ModelArch::Cifarnet),
            "vgg_small" => Ok(ModelArch::VggSmall),
            "resnet20" => Ok(ModelArch::Resnet20),
            "resnet110" => Ok(ModelArch::Resnet110),
            "mobilenet_v2" => Ok(ModelArch::MobilenetV2),
            other => Err(ServeError::BadRequest {
                reason: format!(
                    "unknown model `{other}` (known: cifarnet, vgg_small, resnet20, \
                     resnet110, mobilenet_v2, mlp:IN-…-OUT)"
                ),
            }),
        }
    }
}

/// Everything needed to rebuild the architecture a checkpoint was trained
/// on. The quantisation scheme does **not** need to match training:
/// checkpoint loading replaces each parameter's store wholesale, so any
/// scheme works as a construction placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The backbone to instantiate.
    pub arch: ModelArch,
    /// Classifier output count.
    pub classes: usize,
    /// Input image side length (ignored for [`ModelArch::Mlp`]).
    pub img_size: usize,
    /// Width multiplier (ignored for [`ModelArch::Mlp`]).
    pub width_mult: f32,
}

impl ModelSpec {
    /// Instantiates the architecture with placeholder weights, ready for
    /// [`checkpoint::load`].
    ///
    /// # Errors
    ///
    /// Propagates model-constructor configuration errors.
    pub fn build(&self) -> Result<Network, ServeError> {
        // Seed and scheme are irrelevant: the load overwrites every store.
        self.build_with(&QuantScheme::paper_apt(), &mut rng::seeded(0))
    }

    /// Instantiates the architecture under `scheme`, every initialisation
    /// drawn from `rng` — the one table from a parsed [`ModelArch`] to a
    /// network, so a name that trains is a name that serves.
    ///
    /// # Errors
    ///
    /// Propagates model-constructor configuration errors.
    pub fn build_with(&self, scheme: &QuantScheme, r: &mut StdRng) -> Result<Network, ServeError> {
        let (classes, img, width) = (self.classes, self.img_size, self.width_mult);
        Ok(match &self.arch {
            ModelArch::Mlp(dims) => models::mlp("mlp", dims, scheme, r)?,
            ModelArch::Cifarnet => models::cifarnet(classes, img, width, scheme, r)?,
            ModelArch::VggSmall => models::vgg_small(classes, img, width, scheme, r)?,
            ModelArch::Resnet20 => models::resnet20(classes, width, scheme, r)?,
            ModelArch::Resnet110 => models::resnet110(classes, width, scheme, r)?,
            ModelArch::MobilenetV2 => models::mobilenet_v2(classes, width, scheme, r)?,
        })
    }

    /// Shape of one input sample (without the batch axis).
    pub fn sample_dims(&self) -> Vec<usize> {
        match &self.arch {
            ModelArch::Mlp(dims) => vec![dims[0]],
            _ => vec![3, self.img_size, self.img_size],
        }
    }
}

/// A bounded free-list of staging buffers. `take` prefers a recycled
/// buffer; `put` returns one for reuse. Bounded so a burst can't pin
/// unbounded memory.
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Mutex<Vec<Vec<f32>>>,
}

/// Maximum buffers the arena retains; beyond this, `put` just drops.
const ARENA_CAP: usize = 16;

impl ScratchArena {
    /// Fetches an empty buffer with at least `capacity` reserved,
    /// recycling a previously returned one when available: the smallest
    /// parked buffer that already holds `capacity`, else the largest (it
    /// has the least to grow). Buffers of very different sizes pass through
    /// here — samples, output rows, whole-plan scratch — from more than one
    /// thread, and handing out whichever came back last would let every one
    /// of them drift up to the size of the largest.
    pub fn take(&self, capacity: usize) -> Vec<f32> {
        let recycled = self.free.lock().ok().and_then(|mut free| {
            let by_cap = |&i: &usize| free[i].capacity();
            let at = (0..free.len())
                .filter(|i| by_cap(i) >= capacity)
                .min_by_key(by_cap)
                .or_else(|| (0..free.len()).max_by_key(by_cap))?;
            Some(free.swap_remove(at))
        });
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a buffer to the free list (dropped if the arena is full).
    pub fn put(&self, buf: Vec<f32>) {
        if let Ok(mut free) = self.free.lock() {
            if free.len() < ARENA_CAP {
                free.push(buf);
            }
        }
    }

    /// Number of buffers currently parked in the free list.
    pub fn parked(&self) -> usize {
        self.free.lock().map(|f| f.len()).unwrap_or(0)
    }
}

/// An immutable, `Arc`-shared frozen network and the plan compiled from
/// it, plus the bookkeeping the batcher and server need: sample geometry,
/// output width, and a scratch arena for staging buffers.
///
/// Cloning a session is cheap — clones share the network, the plan and the
/// arena.
#[derive(Debug, Clone)]
pub struct InferenceSession {
    /// The loaded network: what [`resident_bytes`](Self::resident_bytes)
    /// and the registry's publish-time digests count. Requests never read
    /// it.
    net: Arc<Network>,
    /// Compiled frozen plan — the serving path.
    plan: Arc<FrozenPlan>,
    arena: Arc<ScratchArena>,
    /// Shared so that cloning a session — once per served request, at the
    /// registry's hot-swap read point — does not allocate.
    sample_dims: Arc<[usize]>,
    sample_len: usize,
    num_outputs: usize,
}

impl InferenceSession {
    /// Loads a `.aptc` checkpoint blob (any supported version: v1, v2, v3)
    /// into the architecture described by `spec` and compiles it into a
    /// [`FrozenPlan`].
    ///
    /// # Errors
    ///
    /// Propagates architecture construction and checkpoint decode errors,
    /// returns [`ServeError::Nn`] carrying
    /// [`apt_nn::NnError::Unfreezable`] when the network cannot be
    /// compiled, and fails if a probe forward pass cannot run.
    pub fn from_checkpoint(spec: &ModelSpec, blob: &[u8]) -> Result<Self, ServeError> {
        let mut net = spec.build()?;
        checkpoint::load(&mut net, blob)?;
        Self::from_network(net, &spec.sample_dims())
    }

    /// Compiles a loaded network into a session. `sample_dims` is the shape
    /// of one input sample without the batch axis; the probe (a batch of
    /// one zero sample) catches a sample-shape mismatch here rather than on
    /// the first request.
    fn from_network(net: Network, sample_dims: &[usize]) -> Result<Self, ServeError> {
        if sample_dims.is_empty() || sample_dims.contains(&0) {
            return Err(ServeError::BadRequest {
                reason: format!("invalid sample dims {sample_dims:?}"),
            });
        }
        let sample_len: usize = sample_dims.iter().product();
        let plan = net.freeze(sample_dims)?;
        // A zero-sample probe validates the compiled program end to end.
        let mut probe_out = vec![0.0f32; plan.output_len()];
        plan.execute(
            &vec![0.0f32; sample_len],
            1,
            &mut Vec::new(),
            &mut probe_out,
        )?;
        Ok(InferenceSession {
            net: Arc::new(net),
            arena: Arc::new(ScratchArena::default()),
            sample_dims: sample_dims.into(),
            sample_len,
            num_outputs: plan.output_len(),
            plan: Arc::new(plan),
        })
    }

    /// The frozen network.
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// The compiled plan every request runs.
    pub(crate) fn plan(&self) -> &Arc<FrozenPlan> {
        &self.plan
    }

    /// Always `true`: every session serves a compiled [`FrozenPlan`]. Kept
    /// with its signature because `benchmark/` calls it; ROADMAP item 4a
    /// (the `benchmark/`-only PR) retires it.
    pub fn is_frozen(&self) -> bool {
        true
    }

    /// The compile report of the frozen plan — always `Some`. The `Option`
    /// stays because `benchmark/` calls it; ROADMAP item 4a retires it.
    pub fn plan_report(&self) -> Option<&PlanReport> {
        Some(self.plan.report())
    }

    /// Bytes this session keeps resident for serving: the parameter
    /// stores plus whatever the compiled plan holds. This is the figure
    /// registry budgets must count.
    pub fn resident_bytes(&self) -> u64 {
        self.net.resident_bytes() + self.plan.resident_bytes()
    }

    /// Shape of one input sample (no batch axis).
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// Scalar count of one input sample.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Scalar count of one output row (e.g. class logits).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The session's staging-buffer arena.
    pub fn arena(&self) -> &ScratchArena {
        &self.arena
    }

    /// Zero-allocation inference into a caller-provided output buffer:
    /// `input` is `n` concatenated flat samples, `output` must hold
    /// `n * num_outputs` floats. Steady state performs **no heap
    /// allocation** — the plan's scratch arena is recycled through the
    /// session arena and every intermediate lives at a precomputed offset.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] on geometry mismatches.
    pub fn infer_into(
        &self,
        input: &[f32],
        n: usize,
        output: &mut [f32],
    ) -> Result<(), ServeError> {
        if input.len() != n * self.sample_len {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "expected {} input floats for {n} samples, got {}",
                    n * self.sample_len,
                    input.len()
                ),
            });
        }
        if output.len() != n * self.num_outputs {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "expected {} output floats for {n} samples, got {}",
                    n * self.num_outputs,
                    output.len()
                ),
            });
        }
        let mut scratch = self.arena.take(self.plan.arena_floats_per_sample() * n);
        self.plan.execute(input, n, &mut scratch, output)?;
        self.arena.put(scratch);
        Ok(())
    }

    /// Runs a set of flat samples as one coalesced batch and returns one
    /// output row per sample: samples are staged into an arena buffer, run
    /// once, and the staging buffer is recycled. (The micro-batcher stages
    /// the same way but answers each row straight from the output buffer.)
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] if any sample has the wrong
    /// length, and propagates forward-pass errors.
    pub fn infer_samples(&self, samples: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let n = samples.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        for (i, s) in samples.iter().enumerate() {
            if s.len() != self.sample_len {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "sample {i}: expected {} values, got {}",
                        self.sample_len,
                        s.len()
                    ),
                });
            }
        }
        let mut staging = self.arena.take(n * self.sample_len);
        for s in samples {
            staging.extend_from_slice(s);
        }
        // Run straight out of the staging buffer into a recycled output
        // buffer — no tensor wrapping, no per-request intermediate
        // allocation.
        let mut out = self.arena.take(n * self.num_outputs);
        out.resize(n * self.num_outputs, 0.0);
        self.infer_into(&staging, n, &mut out)?;
        let rows = out.chunks(self.num_outputs).map(<[f32]>::to_vec).collect();
        self.arena.put(staging);
        self.arena.put(out);
        Ok(rows)
    }

    /// Convenience single-sample inference (a batch of one).
    ///
    /// # Errors
    ///
    /// Same contract as [`infer_samples`](Self::infer_samples).
    pub fn infer_one(&self, sample: &[f32]) -> Result<Vec<f32>, ServeError> {
        let mut rows = self.infer_samples(std::slice::from_ref(&sample.to_vec()))?;
        rows.pop().ok_or(ServeError::Internal {
            reason: "batch of one produced no rows".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::Mode;
    use apt_tensor::Tensor;

    fn mlp_session() -> InferenceSession {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![6, 10, 4]),
            classes: 4,
            img_size: 0,
            width_mult: 1.0,
        };
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        InferenceSession::from_checkpoint(&spec, &blob).unwrap()
    }

    #[test]
    fn arch_parsing() {
        assert_eq!(
            "cifarnet".parse::<ModelArch>().unwrap(),
            ModelArch::Cifarnet
        );
        assert_eq!(
            "mlp:784-128-10".parse::<ModelArch>().unwrap(),
            ModelArch::Mlp(vec![784, 128, 10])
        );
        assert!("mlp:784".parse::<ModelArch>().is_err());
        assert!("mlp:a-b".parse::<ModelArch>().is_err());
        assert!("alexnet".parse::<ModelArch>().is_err());
        for name in ["vgg_small", "resnet20", "resnet110", "mobilenet_v2"] {
            assert!(name.parse::<ModelArch>().is_ok(), "{name}");
        }
    }

    #[test]
    fn session_probe_and_shapes() {
        let s = mlp_session();
        assert_eq!(s.sample_dims(), &[6]);
        assert_eq!(s.sample_len(), 6);
        assert_eq!(s.num_outputs(), 4);
    }

    #[test]
    fn session_matches_eval_forward() {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![6, 10, 4]),
            classes: 4,
            img_size: 0,
            width_mult: 1.0,
        };
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        let session = InferenceSession::from_checkpoint(&spec, &blob).unwrap();
        let x = apt_tensor::rng::normal(&[3, 6], 1.0, &mut rng::seeded(7));
        let want = net.forward(&x, Mode::Eval).unwrap();
        let mut got = vec![0.0; 3 * session.num_outputs()];
        session.infer_into(x.data(), 3, &mut got).unwrap();
        assert_eq!(want.data(), got);
    }

    #[test]
    fn infer_samples_splits_rows() {
        let s = mlp_session();
        let a = vec![0.5; 6];
        let b = vec![-0.25; 6];
        let rows = s.infer_samples(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
        assert_eq!(rows[0], s.infer_one(&a).unwrap());
        assert_eq!(rows[1], s.infer_one(&b).unwrap());
    }

    #[test]
    fn arena_recycles_staging() {
        let s = mlp_session();
        let _ = s.infer_one(&[1.0; 6]).unwrap();
        assert!(s.arena().parked() >= 1, "staging buffer should be recycled");
        let before = s.arena().parked();
        let _ = s.infer_one(&[1.0; 6]).unwrap();
        assert_eq!(s.arena().parked(), before, "steady state reuses buffers");
    }

    #[test]
    fn wrong_sample_length_is_bad_request() {
        let s = mlp_session();
        assert!(matches!(
            s.infer_one(&[1.0, 2.0]),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(s.infer_samples(&[]).unwrap().is_empty());
    }

    #[test]
    fn concurrent_inference_through_arc() {
        let s = mlp_session();
        let base = s.infer_one(&[0.1; 6]).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            let base = base.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    assert_eq!(s.infer_one(&[0.1; 6]).unwrap(), base);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// An identity layer whose `lower()` declines: the network around it
    /// cannot freeze.
    #[derive(Debug)]
    struct Opaque;

    impl apt_nn::Layer for Opaque {
        fn name(&self) -> &str {
            "opaque"
        }
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> apt_nn::Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad: &Tensor) -> apt_nn::Result<Tensor> {
            Ok(grad.clone())
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut apt_nn::Param)) {}
        fn visit_params_ref(&self, _f: &mut dyn FnMut(&apt_nn::Param)) {}
        fn lower(&self, _builder: &mut apt_nn::PlanBuilder) -> apt_nn::Result<()> {
            Err(apt_nn::NnError::Unfreezable {
                layer: "opaque".to_string(),
                reason: "layer type has no frozen-plan lowering".to_string(),
            })
        }
    }

    fn unfreezable_net() -> Network {
        let fc = apt_nn::layers::Linear::new(
            "fc",
            6,
            4,
            apt_nn::ParamPrecision::Quantized(apt_quant::Bitwidth::new(4).unwrap()),
            Some(apt_nn::ParamPrecision::Float32),
            &mut rng::seeded(3),
        )
        .unwrap();
        Network::new("odd", vec![Box::new(fc), Box::new(Opaque)])
    }

    /// No session exists for a network that cannot freeze, so none can be
    /// published: the registry only ever holds plans.
    #[test]
    fn unfreezable_network_is_refused_at_load() {
        let got = InferenceSession::from_network(unfreezable_net(), &[6]);
        assert!(
            matches!(
                got,
                Err(ServeError::Nn(apt_nn::NnError::Unfreezable { ref layer, .. }))
                    if layer == "opaque"
            ),
            "{got:?}"
        );
    }

    #[test]
    fn invalid_sample_dims_rejected() {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![4, 2]),
            classes: 2,
            img_size: 0,
            width_mult: 1.0,
        };
        let net = spec.build().unwrap();
        assert!(InferenceSession::from_network(net, &[]).is_err());
        let net2 = spec.build().unwrap();
        assert!(InferenceSession::from_network(net2, &[0]).is_err());
        // probe catches arch/sample mismatch up front
        let net3 = spec.build().unwrap();
        assert!(InferenceSession::from_network(net3, &[5]).is_err());
    }
}
