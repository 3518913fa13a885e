//! Dense matrix multiplication.
//!
//! Three entry points cover every use in the training stack:
//!
//! * [`matmul`] — `C = A·B` (forward pass of linear layers, im2col conv).
//! * [`matmul_at_b`] — `C = Aᵀ·B` (weight gradients).
//! * [`matmul_a_bt`] — `C = A·Bᵀ` (input gradients).
//!
//! All three run **one register-tiled micro-kernel**, [`tile`]: a
//! `4 × TN` block of C is loaded into accumulators, `C_tile += A(r,kk) ·
//! B[kk][j..j+TN]` runs with `kk` ascending, and the block is stored once —
//! C is never streamed through memory per multiply-add. The left
//! operand is addressed by a `(row stride, k stride)` pair ([`Lhs`]), so
//! `A·B` `(k, 1)` and `Aᵀ·B` `(1, k)` are the same code; `A·Bᵀ` transposes
//! whichever operand has fewer rows into a contiguous panel and feeds the
//! kernel a zeroed accumulator that is added to C once (falling back to a
//! four-wide register dot kernel when C has too few rows to amortise the
//! transpose). The kernel is plain safe Rust over fixed-size arrays and is
//! compiled twice: at `TN = 8` for the baseline build (two 128-bit vectors
//! per tile row) and at `TN = 16` inside one `#[target_feature(enable =
//! "avx2")]` wrapper (two 256-bit vectors) picked by runtime detection —
//! [`gemm_isa`] says which. Narrower instantiations of the same function
//! (8/4/1 columns, 1 row) finish ragged edges.
//!
//! Every per-element accumulation runs in the same order as the naive
//! serial loop (k ascending for `matmul` and `matmul_at_b`, j ascending
//! for `matmul_a_bt`), each step a separately rounded multiply then add:
//! `fma` is never enabled, because a fused rounding would make the wide
//! and the portable build (and two hosts) disagree in the last bit. So
//! results are bit-identical across instruction sets, thread counts and
//! both `matmul_a_bt` paths.
//!
//! The old kernels skipped `aik == 0.0` terms; that branch defeated
//! autovectorisation and silently swallowed NaN/Inf coming from B (a
//! `0.0 × NaN` term was dropped instead of poisoning C), which could hide
//! corruption from the integrity sentinels. The tiled kernel has no
//! such branch: IEEE-754 propagation is faithful.
//!
//! The slice-level `gemm*` entry points are shared with the conv kernels,
//! which call them directly on im2col scratch buffers to avoid per-call
//! tensor allocation.

use crate::{par, Result, Tensor, TensorError};
use std::cell::RefCell;

/// Shared-dimension tile: a `KC × TN` strip of B (at most 16 KiB) stays in
/// L1 while every row tile of the chunk passes over it.
const KC: usize = 128;
/// C rows per register tile.
const TM: usize = 4;
/// Fewest C rows in a pool chunk: eight row tiles share each B strip, so
/// the strip's trip from L2 is amortised. Chunks are walked one by one
/// whatever the thread count, so one-tile chunks re-stream the whole B
/// panel for every four rows of C on one thread too (192³ 297 → 262 µs
/// from 4 rows to 32, 128³ and 256³ level; 64 reads the same).
const CHUNK_ROWS_MIN: usize = 8 * TM;
/// Minimum C-row count before [`gemm_a_bt`] packs a transposed panel:
/// below this the one-off transpose rivals the GEMM itself and the
/// register-dot kernel wins.
const ABT_PACK_MIN_ROWS: usize = 8;

thread_local! {
    /// Transposed panel for the packed `gemm_a_bt` path, grown
    /// monotonically and reused across calls.
    static BT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Zeroed accumulator for the packed `gemm_a_bt` path (so callers that
    /// `+=` into non-zero C keep the one-add-per-element semantics of the
    /// dot kernel).
    static ABT_ACC_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The first `len` elements of a grown-once scratch vector.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

fn check_matrix(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

// ---------------------------------------------------------------------------
// The micro-kernel and its three instantiations
// ---------------------------------------------------------------------------

/// Which instantiation of the micro-kernel a GEMM call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// `TN = 8`, the build's baseline instruction set.
    Portable,
    /// `TN = 16`, compiled with `avx2` enabled. Constructed only by
    /// [`Isa::detect`], which is what makes the dispatch call sound.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `TN = 32`, compiled with `avx512f` enabled. Constructed only by
    /// [`Isa::detect`], like [`Isa::Avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The widest instantiation this CPU can run (the detection macro
    /// caches its answer, so asking once per GEMM call is free).
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    /// The name [`gemm_isa`] reports.
    fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}

/// Name of the f32 GEMM micro-kernel this process dispatches to:
/// `"avx512"` (4 × 32 tile), `"avx2"` (4 × 16 tile) or `"portable"`
/// (4 × 8 tile, baseline instruction set). All three produce the same
/// bits; throughput differs, so benchmark artefacts record it.
pub fn gemm_isa() -> &'static str {
    Isa::detect().name()
}

/// Left operand of the micro-kernel: element `(r, kk)` is
/// `data[r * rs + kk * ks]`. `(k, 1)` reads a row-major `[rows × k]`
/// matrix, `(1, rows)` reads the transpose of a row-major `[k × rows]`
/// one — which is all that separates `A·B` from `Aᵀ·B`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    rs: usize,
    ks: usize,
}

/// The micro-kernel: `C[i..i+M][j..j+N] += Σ_kk A(i.., kk) · B[kk][j..j+N]`
/// for `kk` in `k0..k1` ascending, with the `M × N` block of C held in
/// accumulators from the first load to the single store. Each C element
/// sees `mul` then `add` in kk order — the naive loop's chain exactly.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const M: usize, const N: usize>(
    a: Lhs,
    b: &[f32],
    c: &mut [f32],
    i: usize,
    j: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let kc = k1 - k0;
    // Every A row of the tile is cut to the same span, so one bounds test
    // per kk step covers all M loads.
    let span = (kc - 1) * a.ks + 1;
    let a_rows: [&[f32]; M] =
        std::array::from_fn(|r| &a.data[(i + r) * a.rs + k0 * a.ks..][..span]);
    let b_strip = &b[k0 * n + j..];
    let mut acc = [[0.0f32; N]; M];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i + r) * n + j..][..N]);
    }
    for t in 0..kc {
        let bv: [f32; N] = b_strip[t * n..][..N]
            .try_into()
            .expect("slice has the tile width");
        for (row, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[t * a.ks];
            for (v, &bj) in row.iter_mut().zip(bv.iter()) {
                *v += x * bj;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..N].copy_from_slice(row);
    }
}

/// One `N`-wide column strip of the chunk: row tiles of [`TM`], then
/// single rows.
#[inline(always)]
fn strip<const N: usize>(
    a: Lhs,
    b: &[f32],
    c: &mut [f32],
    j: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let rows = c.len() / n;
    let mut i = 0;
    while i + TM <= rows {
        tile::<TM, N>(a, b, c, i, j, n, k0, k1);
        i += TM;
    }
    while i < rows {
        tile::<1, N>(a, b, c, i, j, n, k0, k1);
        i += 1;
    }
}

/// `C += A · B[k × n]` over one chunk of C rows (`a` starts at the chunk's
/// first row), tiled `TN` columns wide. k is cut into [`KC`] blocks (a
/// pause in each element's chain, never a reorder); within a block, column
/// strips run outermost so one B strip serves every row tile.
///
/// A chunk of fewer than [`TM`] rows (a frozen plan's batch of 1–3) has no
/// row tile to share a strip with, and a single-row `TN` tile holds only
/// two vector chains, each add waiting on the one before. Such a chunk
/// walks `WIDE = 4·TN` columns at once first: eight vector chains in
/// flight. Every element still sees its own kk-ascending chain, so the
/// bits are those of the `TN` strip.
#[inline(always)]
fn rows_tiled<const TN: usize, const WIDE: usize>(
    a: Lhs,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
) {
    let few_rows = c.len() < TM * n;
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let mut j = 0;
        if few_rows {
            while j + WIDE <= n {
                strip::<WIDE>(a, b, c, j, n, k0, k1);
                j += WIDE;
            }
        }
        while j + TN <= n {
            strip::<TN>(a, b, c, j, n, k0, k1);
            j += TN;
        }
        if TN > 16 && j + 16 <= n {
            strip::<16>(a, b, c, j, n, k0, k1);
            j += 16;
        }
        if TN > 8 && j + 8 <= n {
            strip::<8>(a, b, c, j, n, k0, k1);
            j += 8;
        }
        if j + 4 <= n {
            strip::<4>(a, b, c, j, n, k0, k1);
            j += 4;
        }
        while j < n {
            strip::<1>(a, b, c, j, n, k0, k1);
            j += 1;
        }
        k0 = k1;
    }
}

/// [`rows_tiled`] at `TN = 16` with `avx2` code generation: the
/// `#[inline(always)]` kernel is compiled into this function, so its
/// 16-float rows become two `ymm` registers each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_avx2(a: Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
    rows_tiled::<16, 64>(a, b, c, k, n);
}

/// [`rows_tiled`] at `TN = 32` with `avx512f` code generation: two `zmm`
/// registers per tile row. The multiply and the add stay two instructions
/// (see the module docs), so the bits are the portable tile's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn rows_avx512(a: Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
    rows_tiled::<32, 128>(a, b, c, k, n);
}

/// Serial core of every GEMM form: runs the micro-kernel instantiation
/// `isa` names over one chunk of C rows.
fn kernel_rows(isa: Isa, a: Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
    match isa {
        Isa::Portable => rows_tiled::<8, 32>(a, b, c, k, n),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => {
            // SAFETY: `rows_avx2` requires a CPU with AVX2 and `rows_avx512`
            // one with AVX-512F. `Isa::Avx2` and `Isa::Avx512` are
            // constructed only in `Isa::detect` (and in the test module's
            // `supported_isas`), each after `is_x86_feature_detected!` of
            // its own feature returned true on this CPU.
            #[allow(unsafe_code)]
            unsafe {
                if isa == Isa::Avx512 {
                    rows_avx512(a, b, c, k, n)
                } else {
                    rows_avx2(a, b, c, k, n)
                }
            }
        }
    }
}

/// `C[rows × n] += A · B[k × n]`, parallel over C row chunks whose
/// boundaries depend on the shape only: whole row tiles, at least
/// [`CHUNK_ROWS_MIN`] rows each.
fn kernel_par(isa: Isa, a: Lhs, b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let rows = c.len() / n;
    let row_cost = 2 * k.max(1) * n;
    if !par::worth_parallelising(rows * row_cost) {
        kernel_rows(isa, a, b, c, k, n);
        return;
    }
    let rows_per_chunk = par::chunk_items(rows, row_cost)
        .max(CHUNK_ROWS_MIN)
        .next_multiple_of(TM);
    par::for_each_chunk_mut(c, rows_per_chunk * n, |ci, c_rows| {
        let a_chunk = Lhs {
            data: &a.data[ci * rows_per_chunk * a.rs..],
            ..a
        };
        kernel_rows(isa, a_chunk, b, c_rows, k, n);
    });
}

// ---------------------------------------------------------------------------
// Slice-level kernels (shared with ops::conv)
// ---------------------------------------------------------------------------

/// `C[m×n] += A[m×k] · B[k×n]` on raw slices, parallel over C row chunks.
/// Per C element the accumulation walks k ascending, matching the naive
/// serial loop.
pub(crate) fn gemm(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_on(Isa::detect(), ad, bd, cd, m, k, n);
}

fn gemm_on(isa: Isa, ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), k * n);
    debug_assert_eq!(cd.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let a = Lhs {
        data: ad,
        rs: k,
        ks: 1,
    };
    kernel_par(isa, a, bd, cd, k, n);
}

/// `C[k×n] += Aᵀ·B` (A stored `[m×k]`) on raw slices, parallel over C row
/// chunks. Per C element the accumulation walks i = 0..m ascending,
/// matching the naive serial loop.
pub(crate) fn gemm_at_b(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_at_b_on(Isa::detect(), ad, bd, cd, m, k, n);
}

fn gemm_at_b_on(isa: Isa, ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), m * n);
    debug_assert_eq!(cd.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    let a = Lhs {
        data: ad,
        rs: 1,
        ks: k,
    };
    kernel_par(isa, a, bd, cd, m, n);
}

/// `C[m×k] += A·Bᵀ` (B stored `[k×n]`) on raw slices, parallel over C row
/// chunks. Each C element is a j-ascending dot product, matching the
/// naive serial loop.
pub(crate) fn gemm_a_bt(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_a_bt_on(Isa::detect(), ad, bd, cd, m, k, n);
}

fn gemm_a_bt_on(isa: Isa, ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(ad.len(), m * n);
    debug_assert_eq!(bd.len(), k * n);
    debug_assert_eq!(cd.len(), m * k);
    if m == 0 || k == 0 {
        return;
    }
    if m >= ABT_PACK_MIN_ROWS && n > 0 {
        gemm_a_bt_packed(isa, ad, bd, cd, m, k, n);
        return;
    }
    let row_cost = 2 * k * n.max(1);
    if !par::worth_parallelising(m * row_cost) {
        a_bt_rows(ad, bd, cd, 0, k, n);
        return;
    }
    let rows_per_chunk = par::chunk_items(m, row_cost);
    par::for_each_chunk_mut(cd, rows_per_chunk * k, |ci, c_rows| {
        a_bt_rows(ad, bd, c_rows, ci * rows_per_chunk, k, n);
    });
}

/// Packed path of [`gemm_a_bt`]: transposes **whichever operand has fewer
/// rows** into a contiguous `[n × rows]` panel so the micro-kernel streams
/// unit-stride rows, and lets the other operand be the kernel's left side
/// as it lies. Packing B gives `C = A·Bᵀ` directly; packing A gives
/// `Cᵀ = B·Aᵀ` (conv backward-weight, where dY has 4.5× fewer rows than
/// `col`, and `Linear::forward`, where the batch is smaller than the layer).
///
/// Bit-compatibility with [`a_bt_rows`]: each C element there is a single
/// register dot product (j-ascending from `0.0`) added to C once. Here the
/// same j-ascending chain of the same products (`a·b` and `b·a` round
/// alike) accumulates in a zeroed scratch element — the KC tiling only
/// pauses the chain, never reorders it — and is then added to C once, so
/// the f32 operation sequence per element is identical for both zeroed
/// (matmul) and pre-accumulated (conv backward-weight) destinations.
fn gemm_a_bt_packed(
    isa: Isa,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let pack_a = m < k;
    // The kernel computes acc[rows × width] = left[rows × n] · packedᵀ.
    let (left, packed, rows, width) = if pack_a {
        (bd, ad, k, m)
    } else {
        (ad, bd, m, k)
    };
    BT_SCRATCH.with(|pt_cell| {
        ABT_ACC_SCRATCH.with(|acc_cell| {
            let (mut pt_buf, mut acc_buf) = (pt_cell.borrow_mut(), acc_cell.borrow_mut());
            let pt = grown(&mut pt_buf, n * width);
            for (r, row) in packed.chunks_exact(n).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    pt[j * width + r] = v;
                }
            }
            let acc = grown(&mut acc_buf, rows * width);
            acc.fill(0.0);
            let left = Lhs {
                data: left,
                rs: n,
                ks: 1,
            };
            kernel_par(isa, left, pt, acc, n, width);
            if pack_a {
                for (i, c_row) in cd.chunks_exact_mut(k).enumerate() {
                    for (kk, cv) in c_row.iter_mut().enumerate() {
                        *cv += acc[kk * m + i];
                    }
                }
            } else {
                for (cv, &sv) in cd.iter_mut().zip(acc.iter()) {
                    *cv += sv;
                }
            }
        });
    });
}

/// Serial core of [`gemm_a_bt`] for C rows `row0..row0 + c_rows.len()/k`.
/// Four dot products run per pass over the A row, sharing its loads.
fn a_bt_rows(ad: &[f32], bd: &[f32], c_rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = c_rows.len() / k;
    for r in 0..rows {
        let a_row = &ad[(row0 + r) * n..(row0 + r + 1) * n];
        let c_row = &mut c_rows[r * k..(r + 1) * k];
        let mut kk = 0;
        while kk + 4 <= k {
            let b0 = &bd[kk * n..(kk + 1) * n];
            let b1 = &bd[(kk + 1) * n..(kk + 2) * n];
            let b2 = &bd[(kk + 2) * n..(kk + 3) * n];
            let b3 = &bd[(kk + 3) * n..(kk + 4) * n];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (j, &av) in a_row.iter().enumerate() {
                s0 += av * b0[j];
                s1 += av * b1[j];
                s2 += av * b2[j];
                s3 += av * b3[j];
            }
            c_row[kk] += s0;
            c_row[kk + 1] += s1;
            c_row[kk + 2] += s2;
            c_row[kk + 3] += s3;
            kk += 4;
        }
        while kk < k {
            let b_row = &bd[kk * n..(kk + 1) * n];
            let mut s = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                s += av * bv;
            }
            c_row[kk] += s;
            kk += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Public tensor-level API
// ---------------------------------------------------------------------------

/// `C[m×n] = A[m×k] · B[k×n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless both operands are rank 2 and
/// [`TensorError::ShapeMismatch`] unless the inner dimensions agree.
///
/// ```
/// use apt_tensor::{Tensor, ops};
/// let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19., 22., 43., 50.]);
/// # Ok::<(), apt_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_matrix("matmul", a)?;
    let (kb, n) = check_matrix("matmul", b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[m, n]);
    gemm(a.data(), b.data(), c.data_mut(), m, ka, n);
    Ok(c)
}

/// `C[k×n] = Aᵀ[k×m] · B[m×n]` where `A` is stored as `[m×k]`.
///
/// Used for weight gradients (`dW = Xᵀ·dY`) without materialising a
/// transpose.
///
/// # Errors
///
/// Same contract as [`matmul`]; the shared dimension is `A`'s rows.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix("matmul_at_b", a)?;
    let (mb, n) = check_matrix("matmul_at_b", b)?;
    if m != mb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[k, n]);
    gemm_at_b(a.data(), b.data(), c.data_mut(), m, k, n);
    Ok(c)
}

/// `C[m×k] = A[m×n] · Bᵀ[n×k]` where `B` is stored as `[k×n]`.
///
/// Used for input gradients (`dX = dY·Wᵀ`) without materialising a
/// transpose.
///
/// # Errors
///
/// Same contract as [`matmul`]; the shared dimension is both operands'
/// columns.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n) = check_matrix("matmul_a_bt", a)?;
    let (k, nb) = check_matrix("matmul_a_bt", b)?;
    if n != nb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[m, k]);
    gemm_a_bt(a.data(), b.data(), c.data_mut(), m, k, n);
    Ok(c)
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = check_matrix("transpose", a)?;
    let mut out = Tensor::zeros(&[n, m]);
    let (ad, od) = (a.data(), out.data_mut());
    for i in 0..m {
        for j in 0..n {
            od[j * m + i] = ad[i * n + j];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                c.data_mut()[i * n + j] = s;
            }
        }
        c
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = crate::rng::seeded(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 2, 9), (16, 16, 16)] {
            let a = crate::rng::normal(&[m, k], 1.0, &mut rng);
            let b = crate::rng::normal(&[k, n], 1.0, &mut rng);
            assert!(close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4));
        }
    }

    #[test]
    fn blocked_matmul_is_bitwise_naive() {
        // The blocked kernel keeps each C element's accumulation order
        // k-ascending, so it must agree with the naive triple loop to the
        // last bit — not just to a tolerance.
        let mut rng = crate::rng::seeded(7);
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 2), (9, 17, 11), (33, 40, 29)] {
            let a = crate::rng::normal(&[m, k], 1.0, &mut rng);
            let b = crate::rng::normal(&[k, n], 1.0, &mut rng);
            let c = matmul(&a, &b).unwrap();
            let r = naive(&a, &b);
            assert!(c
                .data()
                .iter()
                .zip(r.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = crate::rng::seeded(2);
        let a = crate::rng::normal(&[6, 3], 1.0, &mut rng);
        let b = crate::rng::normal(&[6, 4], 1.0, &mut rng);
        let expected = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert!(close(&matmul_at_b(&a, &b).unwrap(), &expected, 1e-4));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = crate::rng::seeded(3);
        let a = crate::rng::normal(&[5, 7], 1.0, &mut rng);
        let b = crate::rng::normal(&[4, 7], 1.0, &mut rng);
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert!(close(&matmul_a_bt(&a, &b).unwrap(), &expected, 1e-4));
    }

    #[test]
    fn packed_a_bt_is_bitwise_dot_kernel() {
        // The packed-Bᵀ path must reproduce the register-dot kernel to the
        // last bit — for zeroed C (matmul_a_bt) AND for destinations that
        // already hold partial sums (conv2d_backward_weight accumulates
        // per-image gradients straight into dW).
        let mut rng = crate::rng::seeded(11);
        for &(m, k, n) in &[
            (8, 1, 1),
            (8, 4, 3),
            (9, 7, 5),
            (33, 13, 150),
            (64, 32, 257),
        ] {
            let a = crate::rng::normal(&[m, n], 1.0, &mut rng);
            let b = crate::rng::normal(&[k, n], 1.0, &mut rng);
            let seed = crate::rng::normal(&[m, k], 1.0, &mut rng);

            let mut packed = seed.data().to_vec();
            gemm_a_bt(a.data(), b.data(), &mut packed, m, k, n);
            assert!(
                m >= ABT_PACK_MIN_ROWS,
                "shape must exercise the packed path"
            );

            let mut dotk = seed.data().to_vec();
            a_bt_rows(a.data(), b.data(), &mut dotk, 0, k, n);

            assert!(packed
                .iter()
                .zip(dotk.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    /// The three GEMM forms over one `C[rows × cols]`, shared dimension
    /// `s`, as the naive serial loops: the accumulation chains every
    /// instantiation of the micro-kernel must reproduce bit for bit.
    /// `a` is `[rows × s]` (`[s × rows]` for `Aᵀ·B`), `b` is `[s × cols]`
    /// (`[cols × s]` for `A·Bᵀ`).
    fn naive_forms(
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        rows: usize,
        s: usize,
        cols: usize,
    ) -> [Vec<f32>; 3] {
        let (mut ab, mut at_b, mut a_bt) = (c0.to_vec(), c0.to_vec(), c0.to_vec());
        for i in 0..rows {
            for j in 0..cols {
                for t in 0..s {
                    ab[i * cols + j] += a[i * s + t] * b[t * cols + j];
                    at_b[i * cols + j] += a[t * rows + i] * b[t * cols + j];
                }
                let mut dot = 0.0f32;
                for t in 0..s {
                    dot += a[i * s + t] * b[j * s + t];
                }
                a_bt[i * cols + j] += dot;
            }
        }
        [ab, at_b, a_bt]
    }

    /// Every instantiation of the micro-kernel this CPU can run, each
    /// behind its own feature test (which is what lets `kernel_rows`
    /// dispatch to it).
    fn supported_isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    #[test]
    fn dispatched_portable_and_naive_agree_bitwise_on_ragged_shapes() {
        // The test covers what it says: the portable tile, the one this
        // process dispatches to, and the 256-bit one as well on a host that
        // dispatches past it — a detection typo must not quietly test
        // `Portable` twice.
        let isas = supported_isas();
        assert!(isas.contains(&Isa::Portable) && isas.contains(&Isa::detect()));
        #[cfg(target_arch = "x86_64")]
        assert!(Isa::detect() != Isa::Avx512 || isas.contains(&Isa::Avx2));
        assert_eq!(isas.len() > 1, gemm_isa() != "portable");
        // Every residue of rows mod TM and cols mod 32 (the widest tile),
        // cols below the narrowest vector tile, rows on both sides of
        // ABT_PACK_MIN_ROWS and of cols (so `A·Bᵀ` packs each operand in
        // turn), and shared dimensions around the KC block edge.
        let mut shapes = Vec::new();
        for rows in (1..=9).chain([33]) {
            for cols in (1..=3).chain(32..64) {
                shapes.push((rows, 5, cols));
            }
        }
        for s in [0, 1, KC - 1, KC, KC + 1] {
            for (rows, cols) in [(5, 19), (9, 33), (33, 9), (13, 7)] {
                shapes.push((rows, s, cols));
            }
        }
        // Fewer rows than TM with cols on both sides of one and two wide
        // strips of the widest tile (4 × 32), and past them.
        for rows in 1..TM {
            for cols in [127, 128, 129, 255, 256, 257, 300] {
                shapes.push((rows, 5, cols));
            }
        }
        // One shape with more than CHUNK_ROWS_MIN rows in every form: on
        // three threads each is cut into several pool chunks, the last of
        // them ragged.
        const BIG: (usize, usize, usize) = (70, 130, 241);
        const { assert!(BIG.0 > 2 * CHUNK_ROWS_MIN && !BIG.0.is_multiple_of(CHUNK_ROWS_MIN)) };
        const { assert!(BIG.2 > 2 * CHUNK_ROWS_MIN && !BIG.2.is_multiple_of(CHUNK_ROWS_MIN)) };
        shapes.push(BIG);
        let mut rng = crate::rng::seeded(23);
        par::with_threads(3, || {
            for &(rows, s, cols) in &shapes {
                let a = crate::rng::normal(&[rows * s], 1.0, &mut rng);
                let b = crate::rng::normal(&[s * cols], 1.0, &mut rng);
                let seed = crate::rng::normal(&[rows * cols], 1.0, &mut rng);
                for c0 in [vec![0.0; rows * cols], seed.data().to_vec()] {
                    let want = naive_forms(a.data(), b.data(), &c0, rows, s, cols);
                    for &isa in &isas {
                        let mut got = [c0.clone(), c0.clone(), c0.clone()];
                        gemm_on(isa, a.data(), b.data(), &mut got[0], rows, s, cols);
                        gemm_at_b_on(isa, a.data(), b.data(), &mut got[1], s, rows, cols);
                        gemm_a_bt_on(isa, a.data(), b.data(), &mut got[2], rows, cols, s);
                        for (form, (g, w)) in
                            ["a_b", "at_b", "a_bt"].iter().zip(got.iter().zip(&want))
                        {
                            assert!(
                                g.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits()),
                                "{form} {isa:?} differs from the naive loop at {rows}x{s}x{cols}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn packed_a_bt_matches_explicit_transpose() {
        let mut rng = crate::rng::seeded(12);
        let a = crate::rng::normal(&[16, 40], 1.0, &mut rng);
        let b = crate::rng::normal(&[9, 40], 1.0, &mut rng);
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert!(close(&matmul_a_bt(&a, &b).unwrap(), &expected, 1e-4));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let eye = Tensor::from_vec(vec![1., 0., 0., 0., 1., 0., 0., 0., 1.], &[3, 3]).unwrap();
        let c = matmul(&a, &eye).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn zero_times_nan_in_b_reaches_c() {
        // Regression: the old kernel's `aik == 0.0` early-continue dropped
        // the 0·NaN product, so a NaN planted in B was invisible whenever
        // the matching A element was zero — corruption the integrity
        // sentinels could never see. IEEE-754 says 0·NaN = NaN.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison C in matmul");
        assert_eq!(c.data()[1], 1.0 * 4.0 + 0.0 * 2.0);

        // Aᵀ·B: A = [[0], [1]] (stored [2×1]), NaN in B row 0.
        let a_t = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]).unwrap();
        let c = matmul_at_b(&a_t, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison C in matmul_at_b");

        // A·Bᵀ: zero in A meets NaN in the matching B column.
        let b_t = Tensor::from_vec(vec![f32::NAN, 3.0], &[1, 2]).unwrap();
        let c = matmul_a_bt(&a, &b_t).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison C in matmul_a_bt");
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_at_b(&a, &b).is_err());
        assert!(matmul_a_bt(&a, &b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&v, &b).is_err());
        assert!(transpose(&v).is_err());
    }

    #[test]
    fn degenerate_dims_are_fine() {
        for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            let c = matmul(&a, &b).unwrap();
            assert_eq!(c.dims(), &[m, n]);
            let c = matmul_at_b(&a, &Tensor::zeros(&[m, n])).unwrap();
            assert_eq!(c.dims(), &[k, n]);
            let c = matmul_a_bt(&a, &Tensor::zeros(&[n, k])).unwrap();
            assert_eq!(c.dims(), &[m, n]);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(transpose(&t).unwrap().data(), a.data());
    }
}
