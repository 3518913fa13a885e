//! # apt-tensor
//!
//! Dense `f32` tensor substrate for the Adaptive Precision Training (APT)
//! reproduction. This crate provides everything the upper layers (quantised
//! parameters, neural-network layers, data pipeline) need from a numerical
//! array library:
//!
//! * [`Tensor`] — a contiguous, row-major, heap-allocated `f32` array with a
//!   dynamic [`Shape`].
//! * Matrix multiply ([`ops::matmul`] and its transposed forms) on one
//!   register-tiled micro-kernel, runtime-dispatched to the widest of
//!   AVX-512, AVX2 and the baseline build the CPU has ([`ops::gemm_isa`])
//!   with bit-identical results on all three.
//! * 2-D convolution via im2col + GEMM ([`ops::conv`]), including the two
//!   backward kernels (gradient w.r.t. input and w.r.t. weights).
//! * Pooling, padding/cropping/flipping (used by data augmentation),
//!   reductions, element-wise kernels.
//! * Deterministic random initialisation helpers ([`rng`]).
//!
//! Every kernel runs on the calling thread ([`par`]), and the crate is
//! deliberately dependency-light (only `rand`) and fully deterministic
//! given a seed, which the experiment harness relies on.
//!
//! ## Example
//!
//! ```
//! use apt_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
//! let c = ops::matmul(&a, &b).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(missing_docs)]
// `unsafe` is denied everywhere except the one call into the `avx2`- /
// `avx512f`-compiled GEMM micro-kernel in `ops::matmul_impl` (made only
// after runtime detection), which carries its own SAFETY justification.
#![deny(unsafe_code)]

mod error;
pub mod ops;
pub mod par;
pub mod rng;
mod shape;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
