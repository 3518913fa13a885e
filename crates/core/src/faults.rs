//! Fault injection for resilience testing.
//!
//! A [`StepHook`] is consulted by [`crate::Trainer::train_with_hooks`]
//! right before every training step. It can observe the step coordinates,
//! mutate the batch (to model a corrupted sensor read or a poisoned
//! sample), or simulate a power cut — the trainer then aborts with
//! [`crate::CoreError::Interrupted`] *without* persisting the in-flight
//! step, exactly like a device losing power mid-iteration.
//!
//! Two distinct fault models live here, attacking different storage:
//!
//! * **On-disk** — the byte-level corruptors [`flip_byte`] and
//!   [`truncate_file`] attack *persisted checkpoint files*, proving the
//!   CRC framing catches every single-byte error on the resume path. The
//!   damage exists at rest; detection happens at load time.
//! * **In-memory** — [`BitFlip`], [`BatchCorruptor`] and [`Saturator`]
//!   attack *live training state* through the [`FaultSurface`] the trainer
//!   exposes via [`StepHook::inject`]: weight/momentum buffers, the Gavg
//!   EMAs, input batches, and quantised code rails. This models SEUs in
//!   SRAM/DRAM mid-run; detection and self-healing happen on the very
//!   next step, inside [`crate::integrity::StepGuard`] (see the
//!   fault-tolerance section of `DESIGN.md`).
//!
//! ```no_run
//! use apt_core::{faults, TrainConfig, Trainer, IntegrityConfig};
//! # use apt_data::{SynthCifar, SynthCifarConfig};
//! # use apt_nn::{models, QuantScheme};
//! # use apt_tensor::rng;
//! # let data = SynthCifar::generate(&SynthCifarConfig::default())?;
//! # let net = models::mlp("m", &[3072, 16, 10], &QuantScheme::paper_apt(), &mut rng::seeded(0))?;
//! // On-disk: corrupt a persisted checkpoint, then watch resume reject it.
//! faults::flip_byte(std::path::Path::new("ckpt/step42.apts"), 100, 0x80)?;
//! // In-memory: flip one weight bit mid-run and let the guard heal it.
//! let cfg = TrainConfig { integrity: Some(IntegrityConfig::default()), ..Default::default() };
//! let mut hook = faults::BitFlip::at(5, 7);
//! let mut trainer = Trainer::new(net, cfg)?;
//! let report = trainer.train_with_hooks(&data.train, &data.test, &mut hook)?;
//! assert_eq!(report.integrity.healed_layers, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::CoreError;
use apt_data::Batch;
use apt_tensor::rng as trng;
use rand::Rng;
use std::fs;
use std::path::Path;

/// Coordinates of the step about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Within-epoch iteration index (0-based).
    pub iter: usize,
    /// Optimiser steps completed so far across the whole run.
    pub global_step: u64,
}

/// What the trainer should do with the step a hook just inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepAction {
    /// Proceed normally (the hook may still have mutated the batch).
    #[default]
    Continue,
    /// Simulate a power cut: abort immediately, persisting nothing.
    PowerCut,
}

/// The classes of live training state a [`FaultSurface`] exposes to
/// in-memory injectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceKind {
    /// Parameter stores: fp32 values or quantised codes.
    Weight,
    /// Momentum buffers (only parameters that have one).
    Velocity,
    /// The profiler's smoothed per-layer Gavg accumulators (f64).
    GavgEma,
}

/// Mutable access to the trainer's live in-memory state, handed to
/// [`StepHook::inject`] right before each step. This is the attack surface
/// for soft-error simulation: injectors flip bits or pin quantised codes
/// here, and [`crate::integrity::StepGuard`] must catch the damage.
pub trait FaultSurface {
    /// `(name, element count)` of every target on `kind`'s surface — e.g.
    /// every parameter for [`SurfaceKind::Weight`], or every seeded EMA
    /// (element count 1) for [`SurfaceKind::GavgEma`].
    fn targets(&self, kind: SurfaceKind) -> Vec<(String, usize)>;

    /// Flips bit `bit` of element `elem` of target `name` (both reduced
    /// modulo the target's actual width). Returns `false` if the target
    /// does not exist or has no such surface (e.g. no momentum buffer yet).
    fn flip_bit(&mut self, kind: SurfaceKind, name: &str, elem: usize, bit: u32) -> bool;

    /// Pins roughly 90% of `name`'s quantised codes to the high rail,
    /// returning how many codes were forced (0 for fp32 stores).
    fn saturate(&mut self, name: &str) -> usize;
}

/// Observer/injector consulted before every training step.
pub trait StepHook {
    /// Called with the step coordinates and mutable access to the batch
    /// about to be consumed. Return [`StepAction::PowerCut`] to kill the
    /// run at this exact point.
    fn before_step(&mut self, info: &StepInfo, batch: &mut Batch) -> StepAction;

    /// Called just before [`StepHook::before_step`] with mutable access to
    /// the live in-memory training state. Default: inject nothing.
    fn inject(&mut self, _info: &StepInfo, _surface: &mut dyn FaultSurface) {}
}

/// The no-op hook — plain training.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl StepHook for NoFaults {
    fn before_step(&mut self, _info: &StepInfo, _batch: &mut Batch) -> StepAction {
        StepAction::Continue
    }
}

/// Kills the run when `global_step` reaches a chosen value — i.e. after
/// exactly `at_step` optimiser steps have completed.
#[derive(Debug, Clone, Copy)]
pub struct PowerCut {
    /// Cut power when this many steps have completed.
    pub at_step: u64,
}

impl PowerCut {
    /// A power cut after `at_step` completed optimiser steps.
    pub fn after(at_step: u64) -> Self {
        PowerCut { at_step }
    }
}

impl StepHook for PowerCut {
    fn before_step(&mut self, info: &StepInfo, _batch: &mut Batch) -> StepAction {
        if info.global_step >= self.at_step {
            StepAction::PowerCut
        } else {
            StepAction::Continue
        }
    }
}

/// One bit flip an injector actually landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipRecord {
    /// Optimiser steps completed when the flip was injected.
    pub global_step: u64,
    /// Surface the flip landed on.
    pub kind: SurfaceKind,
    /// Target name (parameter or EMA layer).
    pub param: String,
    /// Element index within the target.
    pub elem: usize,
    /// Bit index within the element.
    pub bit: u32,
}

/// Injects single-event upsets into live weight, momentum or Gavg-EMA
/// storage through the trainer's [`FaultSurface`].
///
/// Two firing modes:
///
/// * [`BitFlip::at`] — exactly one flip at a chosen global step (one-shot,
///   the campaign runner's detection probe);
/// * [`BitFlip::with_rate`] — an expected number of flips per step, drawn
///   from a per-step deterministic substream (the soak mode).
///
/// Every landed flip is appended to [`BitFlip::records`], so tests can
/// correlate injections with the guard's detection events.
#[derive(Debug, Clone)]
pub struct BitFlip {
    seed: u64,
    rate: f64,
    at: Option<u64>,
    kinds: Vec<SurfaceKind>,
    fired: bool,
    records: Vec<FlipRecord>,
}

impl BitFlip {
    /// One flip into a weight store at global step `at_step`.
    pub fn at(at_step: u64, seed: u64) -> Self {
        BitFlip {
            seed,
            rate: 0.0,
            at: Some(at_step),
            kinds: vec![SurfaceKind::Weight],
            fired: false,
            records: Vec::new(),
        }
    }

    /// An expected `rate` flips per step into weight stores.
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        BitFlip {
            seed,
            rate: rate.max(0.0),
            at: None,
            kinds: vec![SurfaceKind::Weight],
            fired: false,
            records: Vec::new(),
        }
    }

    /// Restricts (or widens) the attacked surfaces.
    pub fn surfaces(mut self, kinds: &[SurfaceKind]) -> Self {
        if !kinds.is_empty() {
            self.kinds = kinds.to_vec();
        }
        self
    }

    /// Every flip that actually landed so far.
    pub fn records(&self) -> &[FlipRecord] {
        &self.records
    }

    fn flip_once(&mut self, info: &StepInfo, surface: &mut dyn FaultSurface, draw: u64) {
        let mut rng = trng::substream(self.seed ^ 0xB17F_11F0, draw);
        let kind = self.kinds[rng.gen_range(0..self.kinds.len())];
        let targets = surface.targets(kind);
        if targets.is_empty() {
            return;
        }
        let (name, len) = &targets[rng.gen_range(0..targets.len())];
        let elem = if *len == 0 { 0 } else { rng.gen_range(0..*len) };
        let width = if kind == SurfaceKind::GavgEma { 64 } else { 32 };
        let bit = rng.gen_range(0..width);
        if surface.flip_bit(kind, name, elem, bit) {
            self.records.push(FlipRecord {
                global_step: info.global_step,
                kind,
                param: name.clone(),
                elem,
                bit,
            });
        }
    }
}

impl StepHook for BitFlip {
    fn before_step(&mut self, _info: &StepInfo, _batch: &mut Batch) -> StepAction {
        StepAction::Continue
    }

    fn inject(&mut self, info: &StepInfo, surface: &mut dyn FaultSurface) {
        if let Some(at) = self.at {
            // One-shot: a guard heal does not advance `global_step`, so
            // arming on the counter alone would re-fire on the retry.
            if !self.fired && info.global_step == at {
                self.fired = true;
                self.flip_once(info, surface, at);
            }
            return;
        }
        if self.rate <= 0.0 {
            return;
        }
        let mut rng = trng::substream(self.seed ^ 0x5E0_5EED, info.global_step);
        let mut flips = self.rate.floor() as u64;
        if rng.gen::<f64>() < self.rate.fract() {
            flips += 1;
        }
        for i in 0..flips {
            self.flip_once(
                info,
                surface,
                info.global_step.wrapping_mul(97).wrapping_add(i),
            );
        }
    }
}

/// The corruption payloads [`BatchCorruptor`] can write into a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// One pixel becomes NaN.
    NanPixel,
    /// One pixel becomes +∞.
    InfPixel,
    /// One pixel becomes a finite-but-absurd `1e9`.
    HugePixel,
    /// One label becomes `usize::MAX` (impossible class).
    BadLabel,
}

const BATCH_FAULTS: [BatchFault; 4] = [
    BatchFault::NanPixel,
    BatchFault::InfPixel,
    BatchFault::HugePixel,
    BatchFault::BadLabel,
];

/// Corrupts input batches in flight — a flaky sensor or DMA engine. Each
/// firing writes a single bad value, the realistic case the batch screen
/// must catch before the forward pass consumes it.
#[derive(Debug, Clone)]
pub struct BatchCorruptor {
    seed: u64,
    rate: f64,
    calls: u64,
    injected: usize,
}

impl BatchCorruptor {
    /// Corrupts each batch independently with probability `rate`.
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        BatchCorruptor {
            seed,
            rate: rate.clamp(0.0, 1.0),
            calls: 0,
            injected: 0,
        }
    }

    /// How many batches have been corrupted so far.
    pub fn injected(&self) -> usize {
        self.injected
    }

    fn corrupt(&mut self, draw: u64, batch: &mut Batch) {
        if batch.is_empty() {
            return;
        }
        let mut rng = trng::substream(self.seed ^ 0xBAD_BA7C, draw);
        let kind = BATCH_FAULTS[rng.gen_range(0..BATCH_FAULTS.len())];
        match kind {
            BatchFault::BadLabel => {
                let i = rng.gen_range(0..batch.labels.len());
                batch.labels[i] = usize::MAX;
            }
            pixel => {
                let data = batch.images.data_mut();
                let i = rng.gen_range(0..data.len());
                data[i] = match pixel {
                    BatchFault::NanPixel => f32::NAN,
                    BatchFault::InfPixel => f32::INFINITY,
                    _ => 1e9,
                };
            }
        }
        self.injected += 1;
    }
}

impl StepHook for BatchCorruptor {
    fn before_step(&mut self, _info: &StepInfo, batch: &mut Batch) -> StepAction {
        if self.rate > 0.0 {
            // Keyed on a private call counter, not `global_step`: a skipped
            // batch does not advance the step counter, and a step-keyed draw
            // would deterministically re-fire on every batch after the first
            // hit, corrupting the whole remainder of the epoch.
            let draw = self.calls;
            self.calls += 1;
            let mut rng = trng::substream(self.seed ^ 0xD1CE, draw);
            if rng.gen::<f64>() < self.rate {
                self.corrupt(draw, batch);
            }
        }
        StepAction::Continue
    }
}

/// Drives a quantised layer's codes onto the `i`-bit rails — the
/// stuck-at/overflow failure of integer storage. One-shot; the guard's
/// saturation-ratio check must respond by healing the layer and raising
/// its bitwidth.
#[derive(Debug, Clone)]
pub struct Saturator {
    at: u64,
    fired: bool,
    forced: usize,
}

impl Saturator {
    /// Saturates the first weight of at least 8 codes at `at_step`.
    pub fn at(at_step: u64) -> Self {
        Saturator {
            at: at_step,
            fired: false,
            forced: 0,
        }
    }

    /// How many codes were forced onto a rail.
    pub fn forced(&self) -> usize {
        self.forced
    }
}

impl StepHook for Saturator {
    fn before_step(&mut self, _info: &StepInfo, _batch: &mut Batch) -> StepAction {
        StepAction::Continue
    }

    fn inject(&mut self, info: &StepInfo, surface: &mut dyn FaultSurface) {
        if self.fired || info.global_step != self.at {
            return;
        }
        self.fired = true;
        let name = surface
            .targets(SurfaceKind::Weight)
            .into_iter()
            .find(|(_, len)| *len >= 8)
            .map(|(n, _)| n);
        if let Some(name) = name {
            self.forced = surface.saturate(&name);
        }
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Io {
        reason: format!("{what} {}: {e}", path.display()),
    }
}

/// XORs the byte at `offset` with `mask` in place — a one-bit-to-eight-bit
/// storage corruption.
///
/// # Errors
///
/// [`CoreError::Io`] if the file cannot be read or written;
/// [`CoreError::BadConfig`] if `offset` is out of range or `mask` is zero
/// (which would corrupt nothing).
pub fn flip_byte(path: &Path, offset: usize, mask: u8) -> crate::Result<()> {
    if mask == 0 {
        return Err(CoreError::BadConfig {
            reason: "flip_byte mask must be non-zero".into(),
        });
    }
    let mut bytes = fs::read(path).map_err(|e| io_err("reading", path, e))?;
    let Some(b) = bytes.get_mut(offset) else {
        return Err(CoreError::BadConfig {
            reason: format!("offset {offset} outside file of {} bytes", bytes.len()),
        });
    };
    *b ^= mask;
    fs::write(path, &bytes).map_err(|e| io_err("writing", path, e))
}

/// Truncates the file to `len` bytes — a torn write.
///
/// # Errors
///
/// [`CoreError::Io`] on filesystem failure; [`CoreError::BadConfig`] if
/// `len` is not smaller than the current file size.
pub fn truncate_file(path: &Path, len: usize) -> crate::Result<()> {
    let bytes = fs::read(path).map_err(|e| io_err("reading", path, e))?;
    if len >= bytes.len() {
        return Err(CoreError::BadConfig {
            reason: format!("truncate to {len} ≥ current size {}", bytes.len()),
        });
    }
    fs::write(path, &bytes[..len]).map_err(|e| io_err("writing", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::Tensor;

    fn batch() -> Batch {
        Batch {
            images: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap(),
            labels: vec![0],
        }
    }

    #[test]
    fn power_cut_fires_at_and_after_threshold() {
        let mut hook = PowerCut::after(3);
        let mut b = batch();
        let at = |g| StepInfo {
            epoch: 0,
            iter: 0,
            global_step: g,
        };
        assert_eq!(hook.before_step(&at(2), &mut b), StepAction::Continue);
        assert_eq!(hook.before_step(&at(3), &mut b), StepAction::PowerCut);
        assert_eq!(hook.before_step(&at(9), &mut b), StepAction::PowerCut);
    }

    #[derive(Default)]
    struct MockSurface {
        flips: Vec<(SurfaceKind, String, usize, u32)>,
        saturated: Vec<String>,
    }

    impl FaultSurface for MockSurface {
        fn targets(&self, kind: SurfaceKind) -> Vec<(String, usize)> {
            match kind {
                SurfaceKind::Weight => vec![("w0".into(), 16), ("w1".into(), 32)],
                SurfaceKind::Velocity => vec![("w0".into(), 16)],
                SurfaceKind::GavgEma => vec![("w0".into(), 1)],
            }
        }

        fn flip_bit(&mut self, kind: SurfaceKind, name: &str, elem: usize, bit: u32) -> bool {
            self.flips.push((kind, name.to_string(), elem, bit));
            true
        }

        fn saturate(&mut self, name: &str) -> usize {
            self.saturated.push(name.to_string());
            7
        }
    }

    #[test]
    fn one_shot_bitflip_fires_once_and_records() {
        let mut hook = BitFlip::at(2, 9);
        let mut surface = MockSurface::default();
        for step in 0..5 {
            let info = StepInfo {
                epoch: 0,
                iter: step as usize,
                global_step: step,
            };
            hook.inject(&info, &mut surface);
        }
        assert_eq!(surface.flips.len(), 1);
        assert_eq!(hook.records().len(), 1);
        let rec = &hook.records()[0];
        assert_eq!(rec.global_step, 2);
        assert_eq!(rec.kind, SurfaceKind::Weight);
        assert!(rec.bit < 32);
        // Re-presenting the armed step (a healed retry) must not re-fire.
        let info = StepInfo {
            epoch: 0,
            iter: 2,
            global_step: 2,
        };
        hook.inject(&info, &mut surface);
        assert_eq!(hook.records().len(), 1);
    }

    #[test]
    fn rate_bitflip_is_deterministic_and_hits_chosen_surfaces() {
        let run = |seed| {
            let mut hook = BitFlip::with_rate(1.5, seed)
                .surfaces(&[SurfaceKind::Velocity, SurfaceKind::GavgEma]);
            let mut surface = MockSurface::default();
            for step in 0..20 {
                let info = StepInfo {
                    epoch: 0,
                    iter: step as usize,
                    global_step: step,
                };
                hook.inject(&info, &mut surface);
            }
            (hook.records().to_vec(), surface.flips)
        };
        let (rec_a, flips_a) = run(3);
        let (rec_b, _) = run(3);
        assert_eq!(rec_a, rec_b, "same seed, same campaign");
        // rate 1.5 over 20 steps lands 20–40 flips
        assert!(rec_a.len() >= 20 && rec_a.len() <= 40, "{}", rec_a.len());
        assert!(flips_a.iter().all(|(k, _, _, _)| *k != SurfaceKind::Weight));
    }

    #[test]
    fn saturator_picks_a_sizeable_weight_by_default() {
        let mut hook = Saturator::at(0);
        let mut surface = MockSurface::default();
        let info = StepInfo {
            epoch: 0,
            iter: 0,
            global_step: 0,
        };
        hook.inject(&info, &mut surface);
        hook.inject(&info, &mut surface);
        assert_eq!(hook.forced(), 7);
        assert_eq!(surface.saturated, vec!["w0".to_string()]);
    }

    #[test]
    fn batch_corruptor_writes_one_payload_per_fired_batch() {
        let info = StepInfo {
            epoch: 0,
            iter: 0,
            global_step: 0,
        };
        // Batches hold the pixels 1..=4 and the label 0: anything else is
        // a payload. `kinds` counts pixel and label payloads.
        let mut hook = BatchCorruptor::with_rate(1.0, 5);
        let mut kinds = [0; 2];
        for n in 1..=32 {
            let mut b = batch();
            assert_eq!(hook.before_step(&info, &mut b), StepAction::Continue);
            assert_eq!(hook.injected(), n);
            let data = b.images.data();
            let bad: Vec<f32> = data
                .iter()
                .copied()
                .filter(|v| !(1.0..=4.0).contains(v))
                .collect();
            let label = usize::from(b.labels == [usize::MAX]);
            assert_eq!(
                bad.len() + label,
                1,
                "one payload per batch: {data:?} {:?}",
                b.labels
            );
            assert!(bad.iter().all(|v| !v.is_finite() || *v == 1e9), "{bad:?}");
            kinds[label] += 1;
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");

        let mut hook = BatchCorruptor::with_rate(0.5, 5);
        for _ in 0..32 {
            hook.before_step(&info, &mut batch());
        }
        assert!((4..=28).contains(&hook.injected()), "{}", hook.injected());

        let mut hook = BatchCorruptor::with_rate(0.0, 5);
        let mut b = batch();
        for _ in 0..8 {
            hook.before_step(&info, &mut b);
        }
        assert_eq!(b.images.data(), batch().images.data());
        assert_eq!((b.labels, hook.injected()), (vec![0], 0));
    }

    #[test]
    fn file_corruptors_validate_inputs() {
        let path = std::env::temp_dir().join(format!("apt-faults-{}", std::process::id()));
        fs::write(&path, [1u8, 2, 3, 4]).unwrap();
        flip_byte(&path, 2, 0xFF).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![1, 2, 3 ^ 0xFF, 4]);
        assert!(flip_byte(&path, 99, 1).is_err());
        assert!(flip_byte(&path, 0, 0).is_err());
        truncate_file(&path, 2).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![1, 2]);
        assert!(truncate_file(&path, 2).is_err());
        let _ = fs::remove_file(&path);
    }
}
