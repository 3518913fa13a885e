use crate::EnergyModel;
use apt_nn::{Network, ParamKind, ParamStore};
use std::collections::HashMap;

/// Energy accumulated by an [`EnergyMeter`], split by origin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC (compute) energy, pJ.
    pub compute_pj: f64,
    /// Parameter-traffic energy, pJ.
    pub memory_pj: f64,
    /// Training iterations recorded.
    pub iterations: u64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.memory_pj
    }
}

/// Accumulates the training-energy account of a run.
///
/// Call [`record_iteration`](EnergyMeter::record_iteration) once per
/// training step, *after* the forward/backward pass (so the layers'
/// last-forward MAC counters and the weights' current bitwidths are fresh).
/// The meter then charges, per weight tensor:
///
/// * compute — `(1 + backward_factor) · macs · mac_energy(k)`, where `k` is
///   the tensor's **current** bitwidth (32 + float overhead for fp32
///   stores);
/// * parameter traffic — read for forward, read for backward, write for the
///   update (3 passes over the store), plus a full fp32 read+write of the
///   master copy for [`ParamStore::MasterCopy`] stores — the structural
///   reason those baselines save no training memory or traffic (paper
///   §IV-C).
///
/// Traffic for quantised stores is charged at the **physical** resident
/// width of the code storage (`CodeStore::resident_bits_per_code`: 8 bits
/// for `k ≤ 8`, 16 for `k ≤ 16`, `≈k` bit-packed above), not the
/// idealised `k` — moving a 6-bit code in and out of an `i8` tier costs a
/// full byte on a real bus. Compute stays at the logical `k`: a `k`-bit
/// MAC array doesn't widen because of how the operand was stored.
///
/// Non-weight parameters (BN affine, biases) are charged traffic at their
/// storage width; their compute is negligible and identical across arms.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: EnergyModel,
    breakdown: EnergyBreakdown,
}

impl EnergyMeter {
    /// Creates a meter with the given cost model.
    pub fn new(model: EnergyModel) -> Self {
        EnergyMeter {
            model,
            breakdown: EnergyBreakdown::default(),
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Charges one training iteration of `net` to the account.
    pub fn record_iteration(&mut self, net: &Network) {
        // Inventory: weight-param name →
        // (logical bits, physical traffic width, is_float, len, master_copy)
        let mut params: HashMap<String, (u32, u32, bool, u64, bool)> = HashMap::new();
        net.visit_params_ref(&mut |p| {
            let (bits, width, float, master) = match p.store() {
                ParamStore::Float(_) => (32, 32, true, false),
                ParamStore::Quantized(q) => (
                    q.bits().get(),
                    q.store().resident_bits_per_code(),
                    false,
                    false,
                ),
                ParamStore::MasterCopy { bits, .. } => (bits.get(), bits.get(), false, true),
                ParamStore::Projected { projection, .. } => {
                    (projection.view_bits(), projection.view_bits(), false, true)
                }
            };
            params.insert(
                p.name().to_string(),
                (bits, width, float, p.len() as u64, master),
            );
            if p.kind() != ParamKind::Weight {
                // Traffic for non-weight learnables: read + read + write.
                self.breakdown.memory_pj +=
                    self.model.mem_energy(3 * p.len() as u64 * u64::from(width));
            }
        });
        // Compute + weight traffic, per weight tensor.
        net.visit_compute(&mut |name, macs| {
            if let Some(&(bits, width, float, len, master)) = params.get(name) {
                self.breakdown.compute_pj += self.model.train_mac_energy(macs, bits, float);
                // forward read + backward read + update write, at the
                // physical storage width
                self.breakdown.memory_pj += self.model.mem_energy(3 * len * u64::from(width));
                if master {
                    // fp32 master read-modify-write during the update
                    self.breakdown.memory_pj += self.model.mem_energy(2 * len * 32);
                }
            }
        });
        self.breakdown.iterations += 1;
    }

    /// Charges gradient-exchange traffic: `bytes` actually moved on the
    /// wire this step, billed at the memory-energy rate like any other
    /// parameter traffic.
    ///
    /// The caller passes the **physical packed payload size** — the
    /// `u64`-word framing of the `k`-bit codes plus scalar headers — not
    /// the idealised `len · k / 8`. Same rule PR 4 established for
    /// resident weights: energy follows the bits that really move.
    pub fn record_comm(&mut self, bytes: u64) {
        self.breakdown.memory_pj += self.model.mem_energy(bytes * 8);
    }

    /// The running account.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Total energy so far, pJ.
    pub fn total_pj(&self) -> f64 {
        self.breakdown.total_pj()
    }

    /// Resets the account to zero.
    pub fn reset(&mut self) {
        self.breakdown = EnergyBreakdown::default();
    }

    /// Replaces the account with a previously captured breakdown — the
    /// restore half of checkpointing (the meter's only other state, the
    /// cost model, comes from configuration).
    pub fn restore(&mut self, breakdown: EnergyBreakdown) {
        self.breakdown = breakdown;
    }
}

impl Default for EnergyMeter {
    fn default() -> Self {
        EnergyMeter::new(EnergyModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::{models, Mode, QuantScheme};
    use apt_quant::Bitwidth;
    use apt_tensor::rng::{normal, seeded};

    fn run_one_iter(scheme: &QuantScheme, seed: u64) -> EnergyBreakdown {
        let mut net = models::cifarnet(4, 8, 0.25, scheme, &mut seeded(seed)).unwrap();
        let x = normal(&[2, 3, 8, 8], 1.0, &mut seeded(1));
        let _ = net.forward(&x, Mode::Train).unwrap();
        let mut meter = EnergyMeter::default();
        meter.record_iteration(&net);
        meter.breakdown()
    }

    #[test]
    fn lower_precision_costs_less() {
        let e32 = run_one_iter(&QuantScheme::float32(), 0);
        let e16 = run_one_iter(&QuantScheme::fixed(Bitwidth::new(16).unwrap()), 0);
        let e6 = run_one_iter(&QuantScheme::paper_apt(), 0);
        assert!(e16.total_pj() < e32.total_pj());
        assert!(e6.total_pj() < e16.total_pj());
        assert!(
            e6.compute_pj < e32.compute_pj / 10.0,
            "6-bit MACs ≈ 28x cheaper"
        );
    }

    #[test]
    fn traffic_is_charged_at_physical_width() {
        // 6-bit and 8-bit codes both live in the i8 tier, so they move the
        // same number of physical bits per step — identical memory energy —
        // while the 6-bit MAC array stays cheaper.
        let e6 = run_one_iter(&QuantScheme::fixed(Bitwidth::new(6).unwrap()), 0);
        let e8 = run_one_iter(&QuantScheme::fixed(Bitwidth::new(8).unwrap()), 0);
        assert!(
            (e6.memory_pj - e8.memory_pj).abs() < 1e-9,
            "same i8 tier ⇒ same traffic: {} vs {}",
            e6.memory_pj,
            e8.memory_pj
        );
        assert!(e6.compute_pj < e8.compute_pj, "compute keeps the logical k");
        // Crossing a tier boundary does change the traffic charge.
        let e12 = run_one_iter(&QuantScheme::fixed(Bitwidth::new(12).unwrap()), 0);
        assert!(
            e8.memory_pj < e12.memory_pj,
            "i8 tier moves fewer bits than i16"
        );
    }

    #[test]
    fn master_copy_pays_more_traffic_than_quantized() {
        let eq = run_one_iter(&QuantScheme::fixed(Bitwidth::new(8).unwrap()), 0);
        let em = run_one_iter(&QuantScheme::master_copy(Bitwidth::new(8).unwrap()), 0);
        assert!((em.compute_pj - eq.compute_pj).abs() < 1e-6, "same compute");
        assert!(em.memory_pj > eq.memory_pj, "master copy pays fp32 traffic");
    }

    #[test]
    fn iterations_accumulate_linearly() {
        let mut net =
            models::mlp("m", &[4, 8, 2], &QuantScheme::float32(), &mut seeded(3)).unwrap();
        let x = normal(&[2, 4], 1.0, &mut seeded(4));
        let _ = net.forward(&x, Mode::Train).unwrap();
        let mut meter = EnergyMeter::default();
        meter.record_iteration(&net);
        let one = meter.total_pj();
        meter.record_iteration(&net);
        assert!((meter.total_pj() - 2.0 * one).abs() < 1e-9);
        assert_eq!(meter.breakdown().iterations, 2);
        meter.reset();
        assert_eq!(meter.total_pj(), 0.0);
    }

    #[test]
    fn comm_is_charged_at_physical_packed_width() {
        // Bytes charged == bytes on the wire: encode a gradient panel at
        // k=4, measure its canonical packed wire size, and pin the meter
        // charge to exactly mem_energy(wire_bytes · 8) — no idealised
        // len·k/8 discount, no hidden framing.
        let codec = apt_quant::GradCodec::new(Bitwidth::new(4).unwrap());
        let grad: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) / 500.0).collect();
        let mut residual = vec![0.0f32; grad.len()];
        let store = codec.encode(&grad, &mut residual, codec.scale(1.0));
        let mut wire_bytes = 0u64;
        store.for_each_packed_word(|_| wire_bytes += 8);
        assert_eq!(wire_bytes, (1000u64 * 4).div_ceil(64) * 8);
        let mut meter = EnergyMeter::default();
        meter.record_comm(wire_bytes);
        let charged = meter.breakdown().memory_pj;
        assert_eq!(charged, meter.model().mem_energy(wire_bytes * 8));
        assert_eq!(meter.breakdown().compute_pj, 0.0, "comm is pure traffic");
        // An fp32 exchange of the same tensor moves 8x the bits at k=4 —
        // the energy account must reflect the full ratio.
        let mut fp32 = EnergyMeter::default();
        fp32.record_comm(1000 * 4);
        assert!(charged < 0.2 * fp32.breakdown().memory_pj);
    }

    #[test]
    fn no_forward_no_compute_charge() {
        let net = models::mlp("m", &[4, 8, 2], &QuantScheme::float32(), &mut seeded(5)).unwrap();
        let mut meter = EnergyMeter::default();
        meter.record_iteration(&net);
        assert_eq!(meter.breakdown().compute_pj, 0.0);
        // parameter traffic is still charged
        assert!(meter.breakdown().memory_pj > 0.0);
    }
}
