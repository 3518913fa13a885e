//! # apt-quant
//!
//! Affine quantisation substrate for the Adaptive Precision Training (APT)
//! reproduction (Huang, Luo, Zhou — ICDCS 2020).
//!
//! The paper's numerical core lives here:
//!
//! * [`Bitwidth`] — a validated precision in `[2, 32]` bits (the range
//!   Algorithm 1 clamps to).
//! * [`AffineQuantizer`] — the `r = S·(q − Z)` mapping of Jacob et al.
//!   \[11\], calibrated from a tensor's `(min, max)` range; its scale *is*
//!   the paper's minimum resolution `ε` (Eq. 2).
//! * [`QuantizedTensor`] — a parameter tensor whose **source of truth is the
//!   integer codes**: there is no fp32 master copy, which is how APT saves
//!   training memory (paper §III, Table I). One type holds both
//!   calibrations — the paper's one `(S, Z)` per tensor is the one-group
//!   case of one per output channel — so Eq. 2 calibration, the
//!   underflow-prone update of Eq. 3
//!   ([`sgd_update`](QuantizedTensor::sgd_update)) and the Gavg of Eq. 4
//!   ([`gavg`](QuantizedTensor::gavg)) are each written once, over
//!   [`quantizers`](QuantizedTensor::quantizers).
//! * [`CodeStore`] / [`PackedCodes`] — the *physical* storage behind the
//!   codes: an `i8`/`i16` fast tier and bit-packed `u64` words, so a
//!   `k`-bit layer actually occupies about `k` bits per weight of process
//!   memory instead of a simulated 64. [`QuantizedTensor::resident_bytes`]
//!   reports the real footprint next to the modeled
//!   [`memory_bits`](QuantizedTensor::memory_bits).
//! * [`fake`] — one-shot "fake quantisation" (quantise→dequantise in float),
//!   plus ternarisation/binarisation; these power the fp32-master-copy
//!   baselines of Table I (DoReFa/TTQ/TWN/BNN/TernGrad style).
//! * [`RoundingMode`] — truncation (the paper's Eq. 3), round-to-nearest,
//!   and stochastic rounding (Gupta et al. \[3\]) for ablations.
//!
//! ## Example: quantisation underflow (the phenomenon APT monitors)
//!
//! ```
//! use apt_quant::{Bitwidth, QuantizedTensor, RoundingMode};
//! use apt_tensor::Tensor;
//!
//! let w = Tensor::from_slice(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
//! let mut q = QuantizedTensor::from_tensor(&w, Bitwidth::new(4)?)?;
//! let eps = q.eps();
//! // A gradient step far smaller than ε is lost entirely: underflow.
//! let tiny = Tensor::full(&[5], eps * 0.01);
//! let stats = q.sgd_update(&tiny, 1.0, RoundingMode::Truncate, &mut apt_tensor::rng::seeded(0))?;
//! assert_eq!(stats.underflowed, 5);
//! # Ok::<(), apt_quant::QuantError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod bitwidth;
mod code_store;
mod error;
pub mod fake;
mod grad;
mod quantizer;
mod rounding;
mod tensor_q;

pub use bitwidth::Bitwidth;
pub use code_store::{CodeStore, PackedCodes};
pub use error::QuantError;
pub use grad::GradCodec;
pub use quantizer::AffineQuantizer;
pub use rounding::RoundingMode;
pub use tensor_q::{QuantizedTensor, UpdateStats};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, QuantError>;
