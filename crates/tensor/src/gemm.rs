//! Single-precision general matrix multiply.
//!
//! `C = alpha * op(A) * op(B) + beta * C`, row-major, with optional
//! transposition of either operand — the same contract as `cblas_sgemm`,
//! which Caffe calls for inner-product layers and im2col-based convolution
//! (here: inner-product layers; the convolution kernels are direct and
//! borrow only the row packer and the block constants).
//!
//! The implementation is a BLIS-style packed kernel: operands are copied
//! into contiguous zero-padded panels (`MR`-row panels of `op(A)`, `NR`-
//! column panels of `op(B)`, `2 * NR` on the AVX-512F tier of
//! `crate::simd`), and a register-blocked `MR x NR` (`MR x 2NR`)
//! micro-kernel accumulates along `k`. Packing makes all four transpose
//! combinations hit the same inner loop with unit-stride reads, so
//! transposed layers run as fast as plain ones.
//!
//! `C` is distributed over the crate worker pool ([`crate::parallel`]) as a
//! fixed two-axis tile grid: `MC`-row by `NC`-column tiles whose boundaries
//! are derived only from the matrix shape — never from the thread count —
//! and each task writes a disjoint tile of `C` (through
//! `parallel::SliceParts`, since column tiles are strided), so the result
//! is **bit-identical** at any `SHMCAFFE_THREADS` setting. The column axis
//! matters for wide, short matrices (a handful of rows, thousands of
//! columns), where row panels alone cannot feed more than a couple of
//! threads.
//!
//! Packed `op(A)`/`op(B)` panels live in the per-thread
//! [`crate::workspace`] arena, so steady-state calls allocate nothing. The
//! packing routines are generic over an element accessor
//! (`pack_rows_with`/`pack_cols_with`); [`crate::conv`] reuses the row
//! packer for its filter panels (the direct forward and `d_input` kernels
//! read weights in the same `MR`-row layout).

use crate::parallel::{self, SliceParts};
use crate::simd::{with_wide_lanes, Tier};
use crate::workspace::{self, Tag};

/// Whether an operand is transposed, matching BLAS `CblasTrans`/`NoTrans`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Rows per micro-tile (accumulator rows held in registers).
pub(crate) const MR: usize = 4;
/// Columns per micro-tile on the 8-lane tiers (also the `dW` lane block of
/// [`crate::conv`]); the AVX-512F tier's micro-tile is `2 * NR` columns,
/// one 512-bit lane per row ([`crate::simd`]'s tile rule).
pub(crate) const NR: usize = 8;
/// Rows of `op(A)` per cache block — also the row-axis task granularity.
pub(crate) const MC: usize = 64;
/// Depth of one packed `k` block.
pub(crate) const KC: usize = 256;
/// Columns of `op(B)` per task tile (a multiple of `2 * NR`). Together with
/// `MC` this defines the fixed two-axis grid parallel work is fanned over.
pub(crate) const NC: usize = 512;

/// Computes `C = alpha * op(A) * op(B) + beta * C` for row-major matrices.
///
/// * `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
/// * `A` is stored `m x k` when `trans_a == No`, otherwise `k x m`.
/// * `B` is stored `k x n` when `trans_b == No`, otherwise `n x k`.
///
/// # Panics
///
/// Panics if any slice is shorter than the implied matrix size.
///
/// # Example
///
/// ```rust
/// use shmcaffe_tensor::gemm::{gemm, Transpose};
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = [1.0, 0.0, 0.0, 1.0]; // identity
/// let mut c = [0.0; 4];
/// gemm(Transpose::No, Transpose::No, 2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
/// assert_eq!(c, a);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    trans_a: Transpose,
    trans_b: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);

    // When no product contributes, fall back to the pure beta update. In
    // the common path the beta scaling is fused into the first-k-block
    // write-back below, so `C` is traversed exactly once.
    if alpha == 0.0 || k == 0 {
        scale_c(m, n, beta, c);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }

    // Pack op(A) and op(B) for one k-block at a time into the per-thread
    // workspace arena (shared read-only across tile tasks), then fan the
    // fixed MC x NC tile grid of C out over the worker pool. Packing is an
    // exact element copy, so where panel boundaries fall has no effect on
    // the computed bits — only the KC block grid and the write-back order
    // do, and both are fixed.
    let kc0 = KC.min(k);
    // The wide tier's 16-column micro-tile, unless the matrix is too
    // narrow to fill it or is one row panel tall (an inner product's
    // weight gradient: there the 16-column tile measured 1.4x slower).
    let tier = Tier::host();
    let wide = tier.wide() && n > NR && m > MR;
    let nr = if wide { 2 * NR } else { NR };
    let n_panels = n.div_ceil(nr);
    let m_panels = m.div_ceil(MR);
    workspace::with_f32(Tag::GemmPackB, kc0 * n_panels * nr, |packed_b| {
        workspace::with_f32(Tag::GemmPackA, kc0 * m_panels * MR, |packed_a| {
            let c = SliceParts::new(&mut c[..m * n]);
            for (pc, kcb) in blocks(k, KC) {
                let src = |p, j| b_at(trans_b, n, k, b, p, j);
                let panels = &mut packed_b[..kcb * n_panels * nr];
                if wide {
                    pack_cols_with::<{ 2 * NR }>(pc, kcb, n, src, panels);
                } else {
                    pack_cols_with::<NR>(pc, kcb, n, src, panels);
                }
                pack_rows_with(
                    0,
                    m,
                    pc,
                    kcb,
                    |i, p| a_at(trans_a, m, k, a, i, p),
                    &mut packed_a[..kcb * m_panels * MR],
                );
                let packed_a = &packed_a[..kcb * m_panels * MR];
                let packed_b = &packed_b[..kcb * n_panels * nr];
                let first_block = pc == 0;
                let tile = |ic: usize, mcb: usize, jc: usize, ncb: usize| {
                    let (a, b) = (&packed_a[ic * kcb..], &packed_b[jc * kcb..]);
                    let scale = (alpha, beta, first_block);
                    with_wide_lanes(
                        tier,
                        #[inline(always)]
                        |tier| {
                            let tile = ((ic, mcb), (jc, ncb), n, kcb);
                            if tier.wide() && wide {
                                gemm_tile::<{ 2 * NR }>(tile, scale, a, b, &c);
                            } else {
                                gemm_tile::<NR>(tile, scale, a, b, &c);
                            }
                        },
                    );
                };
                parallel::for_each(
                    blocks(m, MC).flat_map(|rows| blocks(n, NC).map(move |cols| (rows, cols))),
                    |((ic, mcb), (jc, ncb))| tile(ic, mcb, jc, ncb),
                );
            }
        });
    });
}

/// `C *= beta` (with the `beta == 0` NaN-overwriting semantics of BLAS).
fn scale_c(m: usize, n: usize, beta: f32, c: &mut [f32]) {
    if beta == 1.0 {
        return;
    }
    parallel::for_each(c[..m * n].chunks_mut(parallel::elemwise_chunk(m * n)), |chunk| {
        if beta == 0.0 {
            chunk.iter_mut().for_each(|v| *v = 0.0);
        } else {
            chunk.iter_mut().for_each(|v| *v *= beta);
        }
    });
}

/// Fixed block decomposition: `(start, len)` pairs covering `0..total`.
/// Inlined even into another crate's instance of a generic kernel (the
/// multi-bank convolution is one), where a call per tap otherwise stays.
#[inline(always)]
pub(crate) fn blocks(total: usize, step: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..total).step_by(step).map(move |s| (s, step.min(total - s)))
}

/// `op(A)` element at logical `(i, p)`.
#[inline(always)]
fn a_at(trans_a: Transpose, m: usize, k: usize, a: &[f32], i: usize, p: usize) -> f32 {
    match trans_a {
        Transpose::No => a[i * k + p],
        Transpose::Yes => a[p * m + i],
    }
}

/// `op(B)` element at logical `(p, j)`.
#[inline(always)]
fn b_at(trans_b: Transpose, n: usize, k: usize, b: &[f32], p: usize, j: usize) -> f32 {
    match trans_b {
        Transpose::No => b[p * n + j],
        Transpose::Yes => b[j * k + p],
    }
}

/// Packs the `n` logical columns of one k-block (`[pc, pc + kcb)`) into
/// `W`-column panels: panel `jp` holds, for each `p`, the `W` consecutive
/// columns starting at `jp * W` (zero-padded past `n`). `src(p, j)`
/// supplies the element at absolute indices.
///
/// Packing copies elements exactly (no arithmetic), so the panel layout
/// has no effect on computed bits.
fn pack_cols_with<const W: usize>(
    pc: usize,
    kcb: usize,
    n: usize,
    src: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
) {
    for jp in 0..n.div_ceil(W) {
        let jb = jp * W;
        let cols = W.min(n - jb);
        let panel = &mut out[jp * kcb * W..(jp + 1) * kcb * W];
        for (pp, dst) in panel.chunks_exact_mut(W).enumerate() {
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if jj < cols { src(pc + pp, jb + jj) } else { 0.0 };
            }
        }
    }
}

/// Packs logical rows `[i0, i0 + rows_n)` of one k-block into MR-row
/// panels: panel `ip` holds, for each `p`, the `MR` consecutive rows
/// starting at `i0 + ip * MR` (zero-padded past `i0 + rows_n`).
/// `src(i, p)` supplies the element at absolute indices.
pub(crate) fn pack_rows_with(
    i0: usize,
    rows_n: usize,
    pc: usize,
    kcb: usize,
    src: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
) {
    for ip in 0..rows_n.div_ceil(MR) {
        let ib = i0 + ip * MR;
        let rows = MR.min(i0 + rows_n - ib);
        let panel = &mut out[ip * kcb * MR..(ip + 1) * kcb * MR];
        for (pp, dst) in panel.chunks_exact_mut(MR).enumerate() {
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = if ii < rows { src(ib + ii, pc + pp) } else { 0.0 };
            }
        }
    }
}

/// One tile of C for one k-block — rows `[ic, ic + mcb)` x columns
/// `[jc, jc + ncb)` of the `n`-column matrix behind `c` — sweeping the
/// `MR x W` micro-kernel over the tile's panel grid (`W` is the packed
/// panel width). `packed_a` and `packed_b` start at the tile's first row
/// and column panel (`ic`/`jc` are multiples of `MC`/`NC`, which `MR`/`W`
/// divide).
///
/// Writes go through [`SliceParts`] because a column tile touches a
/// strided range of C; tiles are pairwise disjoint by construction of the
/// grid, which is what the `SliceParts` contract requires.
#[inline(always)]
fn gemm_tile<const W: usize>(
    ((ic, mcb), (jc, ncb), n, kcb): ((usize, usize), (usize, usize), usize, usize),
    (alpha, beta, first_block): (f32, f32, bool),
    packed_a: &[f32],
    packed_b: &[f32],
    c: &SliceParts<'_, f32>,
) {
    for jp in 0..ncb.div_ceil(W) {
        let j0 = jc + jp * W;
        let cols = W.min(jc + ncb - j0);
        let b_panel = &packed_b[jp * kcb * W..(jp + 1) * kcb * W];
        for ip in 0..mcb.div_ceil(MR) {
            let i0 = ic + ip * MR;
            let rows = MR.min(ic + mcb - i0);
            let a_panel = &packed_a[ip * kcb * MR..(ip + 1) * kcb * MR];
            let acc = micro_kernel_body::<W>(kcb, a_panel, b_panel);
            // Write-back with the alpha/beta update fused: the first k-block
            // applies beta exactly once (beta == 0 overwrites, so stale NaNs
            // never survive), later blocks accumulate.
            for (ii, acc_row) in acc.iter().enumerate().take(rows) {
                let c_row = c.part((i0 + ii) * n + j0, cols);
                if first_block {
                    if beta == 0.0 {
                        for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                            *cv = alpha * av;
                        }
                    } else {
                        for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                            *cv = alpha * av + beta * *cv;
                        }
                    }
                } else {
                    for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                        *cv += alpha * av;
                    }
                }
            }
        }
    }
}

/// The register-blocked core: `A_panel * B_panel` over `kc` steps, from a
/// `+0.0` tile.
///
/// `a` is `kc` groups of `MR` values (one per micro-row), `b` is `kc`
/// groups of `W` values (one per micro-column). Fixed-size array views
/// and a tile that is a local value (not a caller's `&mut`, which stops
/// being provably unaliased once this is inlined into the dispatch
/// closure) let the compiler keep the `MR x W` accumulator in registers
/// and vectorise the column loop. Run inside [`with_wide_lanes`], so the
/// `W`-wide column loop is one 256-bit lane at `W = NR` on an AVX2 host
/// and one 512-bit lane at `W = 2 * NR` on an AVX-512F host. Each element
/// is the same `k`-ascending chain at either width.
#[inline(always)]
fn micro_kernel_body<const W: usize>(kc: usize, a: &[f32], b: &[f32]) -> [[f32; W]; MR] {
    let mut acc = [[0.0f32; W]; MR];
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(W)).take(kc) {
        let av: &[f32; MR] = av.try_into().expect("MR chunk");
        let bv: &[f32; W] = bv.try_into().expect("W chunk");
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            let ai = av[ii];
            for (jj, accv) in acc_row.iter_mut().enumerate() {
                *accv += ai * bv[jj];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook triple-loop reference used to validate the packed kernels.
    fn reference(
        trans_a: Transpose,
        trans_b: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let get_a = |i: usize, p: usize| match trans_a {
            Transpose::No => a[i * k + p],
            Transpose::Yes => a[p * m + i],
        };
        let get_b = |p: usize, j: usize| match trans_b {
            Transpose::No => b[p * n + j],
            Transpose::Yes => b[j * k + p],
        };
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += get_a(i, p) * get_b(p, j);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn deterministic_matrix(len: usize, seed: u32) -> Vec<f32> {
        // Small LCG keeps tests dependency-free and reproducible.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 16) as f32 / 65536.0) - 0.5
            })
            .collect()
    }

    #[test]
    fn all_transpose_combinations_match_reference() {
        let (m, n, k) = (7, 5, 9);
        for &ta in &[Transpose::No, Transpose::Yes] {
            for &tb in &[Transpose::No, Transpose::Yes] {
                let a = deterministic_matrix(m * k, 1);
                let b = deterministic_matrix(k * n, 2);
                let expected = reference(ta, tb, m, n, k, &a, &b);
                let mut c = vec![0.0; m * n];
                gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                for (got, want) in c.iter().zip(expected.iter()) {
                    assert!((got - want).abs() < 1e-4, "{got} vs {want} ({ta:?},{tb:?})");
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_matches_reference_on_large_sizes() {
        let (m, n, k) = (130, 70, 90);
        let a = deterministic_matrix(m * k, 3);
        let b = deterministic_matrix(k * n, 4);
        let expected = reference(Transpose::No, Transpose::No, m, n, k, &a, &b);
        let mut c = vec![0.0; m * n];
        gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        for (got, want) in c.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-3);
        }
    }

    #[test]
    fn deep_k_crosses_multiple_packed_blocks() {
        // k > KC exercises the multi-block accumulate path (beta fused only
        // into the first block's write-back).
        let (m, n, k) = (9, 11, 2 * KC + 37);
        for &ta in &[Transpose::No, Transpose::Yes] {
            for &tb in &[Transpose::No, Transpose::Yes] {
                let a = deterministic_matrix(m * k, 5);
                let b = deterministic_matrix(k * n, 6);
                let expected = reference(ta, tb, m, n, k, &a, &b);
                let mut c = deterministic_matrix(m * n, 7);
                let c0 = c.clone();
                gemm(ta, tb, m, n, k, 0.5, &a, &b, 2.0, &mut c);
                for (idx, (got, want)) in c.iter().zip(expected.iter()).enumerate() {
                    let full = 0.5 * want + 2.0 * c0[idx];
                    assert!((got - full).abs() < 2e-2, "{got} vs {full} ({ta:?},{tb:?})");
                }
            }
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut c = [10.0, 10.0, 10.0, 10.0];
        gemm(Transpose::No, Transpose::No, 2, 2, 2, 2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c, [9.0, 11.0, 13.0, 15.0]);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = [1.0];
        let b = [1.0];
        let mut c = [f32::NAN];
        gemm(Transpose::No, Transpose::No, 1, 1, 1, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, [1.0]);
    }

    #[test]
    fn alpha_zero_still_applies_beta() {
        let mut c = [f32::NAN, 3.0];
        gemm(Transpose::No, Transpose::No, 1, 2, 3, 0.0, &[0.0; 3], &[0.0; 6], 0.0, &mut c);
        assert_eq!(c, [0.0, 0.0]);
        let mut c = [2.0, 3.0];
        gemm(Transpose::No, Transpose::No, 1, 2, 3, 0.0, &[0.0; 3], &[0.0; 6], 0.5, &mut c);
        assert_eq!(c, [1.0, 1.5]);
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c = [5.0];
        gemm(Transpose::No, Transpose::No, 1, 1, 0, 1.0, &[], &[], 1.0, &mut c);
        assert_eq!(c, [5.0]);
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let (m, n, k) = (150, 67, 300);
        let a = deterministic_matrix(m * k, 8);
        let b = deterministic_matrix(k * n, 9);
        let run = |threads: usize| {
            crate::parallel::with_threads(threads, || {
                let mut c = vec![0.0f32; m * n];
                gemm(Transpose::No, Transpose::Yes, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                c
            })
        };
        let serial = run(1);
        for t in [2, 4, 7] {
            let par = run(t);
            assert!(
                serial.iter().zip(par.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={t} diverged"
            );
        }
    }

    #[test]
    fn wide_matrix_parallel_column_grid_bit_identical() {
        // n > NC exercises the column-axis tile grid (and the strided
        // SliceParts write-back path) that wide conv output matrices hit.
        // Kept small so Miri can interpret it (scripts/miri.sh runs
        // `parallel`-named tests).
        let (m, n, k) = (5, NC + 24, 40);
        let a = deterministic_matrix(m * k, 10);
        let b = deterministic_matrix(k * n, 11);
        let run = |threads: usize| {
            crate::parallel::with_threads(threads, || {
                let mut c = deterministic_matrix(m * n, 12);
                gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.5, &mut c);
                c
            })
        };
        let serial = run(1);
        for t in [2, 4] {
            let par = run(t);
            assert!(
                serial.iter().zip(par.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={t} diverged"
            );
        }
    }
}
