//! The Gavg metric (paper Eq. 4) and its in-epoch profiler.
//!
//! `Gavg_i = (1/N_i) Σ_j |g_ij / ε_i|` measures how large a layer's
//! gradients are relative to its quantisation step `ε_i`. Near zero, almost
//! every update underflows (Eq. 3 quantises it to nothing) and the layer is
//! effectively frozen; comfortably above 1, updates land reliably.
//!
//! The metric deliberately excludes the learning rate and momentum
//! (§III-B) so users can layer any optimiser tricks on top without
//! invalidating the profile.
//!
//! One layer's Eq. 4 is [`apt_quant::QuantizedTensor::gavg`], over the
//! tensor's own grid; this module keeps the moving averages of it.

use apt_metrics::Ema;
use apt_nn::Network;
use std::collections::HashMap;

/// Moving-average Gavg profiles for every quantised weight tensor of a
/// network (Algorithm 2 lines 6–9).
///
/// Call [`sample`](GavgProfiler::sample) after a backward pass (gradients
/// fresh, optimiser not yet stepped) every `INTERVAL` iterations; read the
/// smoothed profile with [`profile`](GavgProfiler::profile) when the epoch
/// ends and the policy runs.
#[derive(Debug, Clone, Default)]
pub struct GavgProfiler {
    alpha: f64,
    emas: HashMap<String, Ema>,
}

impl GavgProfiler {
    /// Creates a profiler with EMA smoothing factor `alpha` (1.0 = keep
    /// only the latest sample).
    pub fn new(alpha: f64) -> Self {
        GavgProfiler {
            alpha,
            emas: HashMap::new(),
        }
    }

    /// Samples Gavg for every **quantised** parameter of `net` and folds
    /// each into its moving average. Returns the number of tensors sampled.
    ///
    /// Per §III-B the metric applies to any learnable parameter, so this
    /// profiles whatever the model's [`apt_nn::QuantScheme`] actually
    /// quantised — weights under the paper's default scheme; weights,
    /// biases and batch-norm affine under a fully-quantised scheme.
    /// fp32 and master-copy parameters have no `ε` and are skipped.
    pub fn sample(&mut self, net: &Network) -> usize {
        let mut sampled = 0;
        let alpha = self.alpha;
        let emas = &mut self.emas;
        net.visit_params_ref(&mut |p| {
            // `Param::gavg` applies the tensor's own resolution structure
            // (per-tensor ε, or per-channel ε_c for the calibration
            // ablation) and returns None for fp32/master-copy stores.
            let Some(g) = p.gavg() else { return };
            emas.entry(p.name().to_string())
                .or_insert_with(|| Ema::new(alpha))
                .update(g);
            sampled += 1;
        });
        sampled
    }

    /// The smoothed Gavg of one layer, if it has been sampled.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.emas.get(name).and_then(|e| e.value())
    }

    /// The full smoothed profile, sorted by layer name for deterministic
    /// iteration.
    pub fn profile(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .emas
            .iter()
            .filter_map(|(k, e)| e.value().map(|v| (k.clone(), v)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Serialisable snapshot of every seeded moving average, sorted by
    /// layer name. Together with the smoothing factor `alpha` this is the
    /// profiler's entire state; EMAs that have never been sampled carry no
    /// information and are omitted.
    pub fn export(&self) -> Vec<(String, f64)> {
        self.profile()
    }

    /// [`export`](GavgProfiler::export) into a snapshot taken earlier: when
    /// `snapshot` names exactly the seeded averages (the steady state: the
    /// set of sampled layers does not change between steps) only the
    /// values are rewritten and nothing is allocated; otherwise it is
    /// replaced.
    pub(crate) fn export_into(&self, snapshot: &mut Vec<(String, f64)>) {
        if self.names_exactly(snapshot) {
            for (name, value) in snapshot.iter_mut() {
                *value = self.get(name).expect("checked: every name is seeded");
            }
        } else {
            *snapshot = self.export();
        }
    }

    /// `export() == snapshot`, without building the export.
    pub(crate) fn exports(&self, snapshot: &[(String, f64)]) -> bool {
        self.names_exactly(snapshot) && snapshot.iter().all(|(name, v)| self.get(name) == Some(*v))
    }

    /// Whether `snapshot`'s names (unique, as an export's are) are exactly
    /// the seeded averages'.
    fn names_exactly(&self, snapshot: &[(String, f64)]) -> bool {
        let seeded = self.emas.values().filter(|e| e.value().is_some()).count();
        seeded == snapshot.len() && snapshot.iter().all(|(name, _)| self.get(name).is_some())
    }

    /// Rebuilds the profiler state from an [`export`](GavgProfiler::export)
    /// snapshot, replacing whatever was accumulated so far. Exact because
    /// an [`Ema`]'s first update adopts the raw value.
    pub fn restore(&mut self, entries: &[(String, f64)]) {
        self.emas.clear();
        for (name, value) in entries {
            let mut ema = Ema::new(self.alpha);
            ema.update(*value);
            self.emas.insert(name.clone(), ema);
        }
    }

    /// Flips one bit of a layer's smoothed Gavg value — the in-memory SEU
    /// model for the profiler's f64 accumulators, used by
    /// [`crate::faults::BitFlip`]. Returns `false` if the layer has no
    /// seeded EMA (nothing to corrupt).
    pub fn flip_ema_bit(&mut self, name: &str, bit: u32) -> bool {
        let Some(value) = self.get(name) else {
            return false;
        };
        let corrupted = f64::from_bits(value.to_bits() ^ (1u64 << (bit % 64)));
        let mut ema = Ema::new(self.alpha);
        ema.update(corrupted);
        self.emas.insert(name.to_string(), ema);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::{models, Mode, QuantScheme};
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

    #[test]
    fn profiler_samples_only_quantized_weights() {
        let mut net =
            models::mlp("m", &[4, 8, 2], &QuantScheme::paper_apt(), &mut seeded(3)).unwrap();
        let x = normal(&[4, 4], 1.0, &mut seeded(4));
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::ones(y.dims())).unwrap();
        let mut prof = GavgProfiler::new(1.0);
        let sampled = prof.sample(&net);
        assert_eq!(sampled, 2); // two quantised linear weights; biases skipped
        assert_eq!(prof.profile().len(), 2);
        assert!(prof.get("fc0.weight").is_some());
        assert!(prof.get("fc0.bias").is_none());
    }

    #[test]
    fn profiler_ignores_fp32_networks() {
        let mut net =
            models::mlp("m", &[4, 8, 2], &QuantScheme::float32(), &mut seeded(5)).unwrap();
        let x = normal(&[4, 4], 1.0, &mut seeded(6));
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::ones(y.dims())).unwrap();
        let mut prof = GavgProfiler::new(1.0);
        assert_eq!(prof.sample(&net), 0);
        assert!(prof.profile().is_empty());
    }

    #[test]
    fn ema_smooths_across_samples() {
        let mut net =
            models::mlp("m", &[4, 4, 2], &QuantScheme::paper_apt(), &mut seeded(7)).unwrap();
        let x = normal(&[4, 4], 1.0, &mut seeded(8));
        let mut prof = GavgProfiler::new(0.5);
        // First sample with real gradients.
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::ones(y.dims())).unwrap();
        prof.sample(&net);
        let first = prof.get("fc0.weight").unwrap();
        // Second sample with zero gradients: EMA halves instead of dropping
        // to zero.
        net.zero_grads();
        prof.sample(&net);
        let second = prof.get("fc0.weight").unwrap();
        assert!(
            (second - first / 2.0).abs() < 1e-9,
            "first={first} second={second}"
        );
    }
}
