//! # apt-core
//!
//! **The paper's contribution**: Adaptive Precision Training (Huang, Luo,
//! Zhou — ICDCS 2020), assembled from the substrate crates.
//!
//! * [`gavg`] — the per-layer underflow metric of Eq. 4,
//!   `Gavg_i = mean_j |g_ij / ε_i|`, plus the moving-average profiler
//!   Algorithm 2 samples every `INTERVAL` iterations.
//! * [`policy`] — Algorithm 1: raise a layer's bitwidth when its Gavg falls
//!   below `T_min` (it is starving under quantisation underflow), lower it
//!   when Gavg exceeds `T_max` (it has precision to spare), clamped to
//!   `[2, 32]`.
//! * [`trainer`] — Algorithm 2: the full training loop. Start every layer
//!   low-precision (6-bit by default), profile Gavg inside each epoch,
//!   adjust layer-wise precision between epochs, and meter energy/memory
//!   along the way. With the policy disabled the same loop trains the
//!   fixed-precision and fp32 arms, so every Figure 2–5 comparison runs on
//!   identical machinery.
//!
//! ## Quick example
//!
//! ```no_run
//! use apt_core::{PolicyConfig, TrainConfig, Trainer};
//! use apt_data::{SynthCifar, SynthCifarConfig};
//! use apt_nn::{models, QuantScheme};
//! use apt_tensor::rng;
//!
//! let data = SynthCifar::generate(&SynthCifarConfig::default())?;
//! let net = models::cifarnet(10, 16, 0.5, &QuantScheme::paper_apt(), &mut rng::seeded(0))?;
//! let cfg = TrainConfig { epochs: 10, policy: Some(PolicyConfig::default()), ..Default::default() };
//! let mut trainer = Trainer::new(net, cfg)?;
//! let report = trainer.train(&data.train, &data.test)?;
//! println!("final accuracy: {:.1}%", 100.0 * report.final_accuracy);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
mod error;
pub mod faults;
pub mod gavg;
pub mod integrity;
pub mod policy;
pub mod reduce;
mod snapshot;
pub mod state;
pub mod trainer;

pub use checkpoint::{latest_valid, write_state, CheckpointConfig};
pub use error::CoreError;
pub use faults::{
    flip_byte, truncate_file, BatchCorruptor, BatchFault, BitFlip, FaultSurface, FlipRecord,
    NoFaults, PowerCut, Saturator, StepAction, StepHook, StepInfo, SurfaceKind,
};
pub use gavg::{gavg_of, GavgProfiler};
pub use integrity::{
    IntegrityAction, IntegrityConfig, IntegrityEvent, IntegrityKind, IntegrityReport, ScanOutcome,
    StepGuard,
};
pub use policy::{adjust_bitwidth, apply_policy, PolicyConfig, PrecisionChange};
pub use reduce::GradReducer;
pub use state::{OptimizerState, TrainState};
pub use trainer::{
    EpochRecord, GradQuant, OptimizerKind, SentinelConfig, TrainConfig, TrainReport, Trainer,
};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
