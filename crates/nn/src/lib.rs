//! # apt-nn
//!
//! Neural-network substrate for the APT reproduction: layers with manual
//! forward/backward passes, pluggable parameter storage (quantised /
//! float / fp32-master-copy), and the model zoo the paper evaluates
//! (ResNet-20/110, MobileNetV2, plus CifarNet/VGG-small/MLP helpers).
//!
//! ## Parameter storage is where the paper's memory claim lives
//!
//! Every learnable tensor is a [`Param`] wrapping a [`ParamStore`]:
//!
//! * [`ParamStore::Quantized`] — integer codes only (APT and the
//!   fixed-bitwidth baselines), calibrated per tensor or, for the
//!   ablation, per output channel: one store variant over the one
//!   `apt_quant::QuantizedTensor`. Training memory is `N·k` bits.
//! * [`ParamStore::Float`] — plain fp32 (the fp32 baseline).
//! * [`ParamStore::MasterCopy`] / [`ParamStore::Projected`] — fp32 master
//!   plus a `k`-bit quantised (or binary/ternary) view (DoReFa/TTQ/BNN-style
//!   comparators of Table I). Training memory is `N·32 + N·k` bits, which
//!   is exactly why those methods save no training memory (paper §IV-C).
//!
//! ## Example
//!
//! ```
//! use apt_nn::{models, Mode, QuantScheme};
//! use apt_tensor::{rng, Tensor};
//!
//! let mut net = models::mlp("toy", &[4, 8, 3], &QuantScheme::paper_apt(), &mut rng::seeded(0))?;
//! let x = rng::normal(&[2, 4], 1.0, &mut rng::seeded(1));
//! let y = net.forward(&x, Mode::Train)?;
//! assert_eq!(y.dims(), &[2, 3]);
//! # Ok::<(), apt_nn::NnError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
mod error;
mod layer;
pub mod layers;
pub mod models;
mod network;
mod param;
pub mod plan;

pub use error::NnError;
pub use layer::{Layer, Mode};
pub use network::Network;
pub use param::{Param, ParamKind, ParamPrecision, ParamStore, Projection, QuantScheme};
pub use plan::{FrozenPlan, PlanBuilder, PlanReport};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
