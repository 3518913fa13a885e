//! Numerical kernels on [`Tensor`](crate::Tensor).
//!
//! Kernels are grouped by family:
//!
//! * [`elementwise`] — add/axpy/scale and friends.
//! * [`matmul`](self::matmul()) — register-tiled GEMM plus transposed
//!   variants, one micro-kernel in three widths (`avx512`, `avx2`,
//!   `portable`), dispatched by [`gemm_isa`].
//! * [`conv`] — 2-D convolution (im2col + GEMM) with both backward kernels.
//! * [`fused`] — single-pass conv/linear kernels with bias + activation
//!   epilogues for compiled inference plans.
//! * [`pool`] — max and global-average pooling with backward.
//! * [`reduce`] — axis sums and means, and argmax.
//! * [`pad`] — zero-padding, cropping and flipping (data augmentation).
//! * [`softmax`] — row softmax / log-softmax and cross-entropy.
//!
//! All kernels validate shapes and return [`crate::Result`]; none panic on
//! malformed user input.

pub mod conv;
pub mod elementwise;
pub mod fused;
mod matmul_impl;
pub mod pad;
pub mod pool;
pub mod reduce;
pub mod softmax;

pub use elementwise::{add, add_in_place, axpy, scale, scale_in_place};
pub use matmul_impl::{gemm_isa, matmul, matmul_a_bt, matmul_at_b, transpose};
