//! 2-D convolution: direct register-tiled forward, input gradient and
//! weight gradient.
//!
//! Layout conventions follow Caffe blobs:
//!
//! * inputs and outputs are `(N, C, H, W)` row-major,
//! * weights are `(C_out, C_in, KH, KW)`, read as the `C_out x C_in*KH*KW`
//!   filter matrix whose column index `r` encodes `(c, kh, kw)`.
//!
//! There is no im2col, materialised or fused. **Forward** copies each
//! image once into a zero-padded scratch band and walks output rows with
//! an `MR`-channel x [`TW`]-column accumulator tile in registers: filter
//! tap `r` contributes `w[r] * x[kw .. kw + TW]`, one broadcast weight per
//! channel against one contiguous window of the staged row (for
//! `stride_w > 1` the staging de-interleaves each row into `stride_w`
//! column phases, so the window of every tap stays contiguous). The
//! weights sit in the `MR`-row panels of [`crate::gemm`], taps are folded
//! `r` ascending inside the same `KC` k-blocks, and the write-back
//! overwrites on the first block and accumulates afterwards — so every
//! output element sees the sequence of IEEE multiplies and adds that
//! `gemm(W, im2col(x))` performs, padding taps included as real `w * 0.0`
//! products, and the result is bit-identical to that formulation (kept as
//! the test oracle in `tests/oracle/`).
//!
//! **`d_input`** is the mirror image over a staged copy of `dY` whose
//! columns carry a zero border of `KW - 1 - pad_w` and `stride_w - 1`
//! zeros between neighbours: for each tap `(kh, kw)` ascending the kernel
//! completes `t = Σ_co W[co][c][kh][kw] * dY[co]` over the tile (`co`
//! ascending from `+0.0`, `KC` blocks over `C_out`) and only then adds `t`
//! into the `dX` tile, which starts at `+0.0` — the per-element order of
//! `col2im(Wᵀ · dY)`. Tap rows that fall between or outside the `dY` rows
//! are skipped, as col2im skips them; columns that do are not, and add
//! `t = +0.0` (a `+0.0`-seeded sum of `w * 0.0` terms). That is bit-equal
//! to skipping for finite weights because the running `dX` sum is never
//! `-0.0`: it starts at `+0.0`, and an IEEE round-to-nearest sum is `-0.0`
//! only when both addends are.
//!
//! **`dW`** reads the same staged band as forward, with the *output
//! channels* on the vector lanes: `dW[co][r] += Σ_k dY[co][k] · x_r[k]` is
//! one scalar chain over spatial positions `k` per `(co, r)`, and chains of
//! different `co` are independent, so a tile of `NR` output channels x
//! [`DW_TAPS`] taps advances one `k` per step — tap `r`'s staged value
//! broadcast against the `NR`-lane row of a `[k][C_out]` transpose of `dY`.
//! Each chain runs `k` ascending from `+0.0` inside a `KC` block of
//! positions and is added to the caller's gradient once per block and
//! image: the multiplies and adds `gemm(dY, im2col(x)ᵀ, beta = 1)` performs
//! per element (multiplication commutes bitwise), padding taps again real
//! `dy * 0.0` products. Lanes past `C_out` and taps past the task's last
//! are computed and never stored.
//!
//! Parallelism is a fixed grid derived only from the geometry and batch
//! size, never from the thread count:
//!
//! * **forward** — tasks are `(image, output-row band, MC-filter block)`
//!   cells, so one wide image fans out over its rows even at batch 1;
//! * **backward** — `dW` tasks are `NC`-column blocks of the weight
//!   gradient (each folds the whole batch in image order), `db` tasks are
//!   `MC`-row filter blocks, and `d_input` tasks are `(image, input-row
//!   band, MC-channel block)` cells. Every task writes a disjoint region
//!   (through [`parallel::SliceParts`]) and folds its own data in a fixed
//!   serial order, so results are **bit-identical** at any
//!   `SHMCAFFE_THREADS`.
//!
//! Scratch (filter panels, staged bands, the `dY` transpose) comes from the
//! per-thread [`crate::workspace`] arena, so steady-state forward/backward
//! performs zero heap allocations (asserted by `tests/alloc_free.rs`).

use crate::gemm::{blocks, pack_rows_with, KC, MC, MR, NC, NR};
use crate::parallel::{self, SliceParts, Task};
use crate::simd::with_wide_lanes;
use crate::workspace::{self, Tag};
use crate::TensorError;

/// Columns of the forward / `d_input` register tile: `MR` channels x `TW`
/// consecutive columns of one row, two 256-bit lanes per channel. Also the
/// wide max-pool tile ([`crate::pool`]).
pub(crate) const TW: usize = 16;

/// Filter taps per `dW` register tile: `DW_TAPS` taps x `NR` output
/// channels, one 256-bit accumulator per tap.
const DW_TAPS: usize = 12;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Vertical zero padding.
    pub pad_h: usize,
    /// Horizontal zero padding.
    pub pad_w: usize,
}

impl Conv2dGeometry {
    /// Square-kernel convenience constructor.
    pub fn square(
        in_channels: usize,
        in_hw: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Conv2dGeometry {
            in_channels,
            in_h: in_hw,
            in_w: in_hw,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output height `(H + 2*pad - KH) / stride + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] if the window does not fit.
    pub fn out_h(&self) -> Result<usize, TensorError> {
        out_extent(self.in_h, self.kernel_h, self.stride_h, self.pad_h)
    }

    /// Output width `(W + 2*pad - KW) / stride + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] if the window does not fit.
    pub fn out_w(&self) -> Result<usize, TensorError> {
        out_extent(self.in_w, self.kernel_w, self.stride_w, self.pad_w)
    }

    /// Rows of the logical column matrix: `C_in * KH * KW`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the logical column matrix: `H_out * W_out`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] if the window does not fit.
    pub fn col_cols(&self) -> Result<usize, TensorError> {
        Ok(self.out_h()? * self.out_w()?)
    }

    /// Elements of one input image: `C_in * H * W`.
    pub fn in_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }
}

fn out_extent(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<usize, TensorError> {
    if stride == 0 {
        return Err(TensorError::BadGeometry("stride must be positive".into()));
    }
    let padded = input + 2 * pad;
    if kernel == 0 || kernel > padded {
        return Err(TensorError::BadGeometry(format!(
            "kernel {kernel} does not fit input {input} with pad {pad}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

/// The register-tiled core shared by forward and `d_input`:
/// `acc[i][j] += w[p][i] * x[base + offs[p] + j]` for `p` ascending — per
/// step one broadcast weight per channel against one contiguous `TW`-wide
/// window of the staged buffer. The same multiply-then-add per element as
/// the gemm micro-kernel, on a tile twice as wide.
#[inline(always)]
fn tile_taps(w: &[f32], x: &[f32], base: usize, offs: &[usize], acc: &mut [[f32; TW]; MR]) {
    for (wv, &off) in w.chunks_exact(MR).zip(offs) {
        let wv: &[f32; MR] = wv.try_into().expect("MR chunk");
        let xv: &[f32; TW] = x[base + off..][..TW].try_into().expect("TW window");
        for (acc_row, &wi) in acc.iter_mut().zip(wv) {
            for (a, &xj) in acc_row.iter_mut().zip(xv) {
                *a += wi * xj;
            }
        }
    }
}

/// `dst[i][j] += src[i][j]` over a whole tile.
#[inline(always)]
fn add_tile(dst: &mut [[f32; TW]; MR], src: &[[f32; TW]; MR]) {
    for (d_row, s_row) in dst.iter_mut().zip(src) {
        for (d, &s) in d_row.iter_mut().zip(s_row) {
            *d += s;
        }
    }
}

/// One `d_input` tap over a tile: `Σ_co w_tap[co] · dY[co]` with `co`
/// ascending from `+0.0` in `KC` blocks (first block overwrites, later
/// ones accumulate) — the value `Wᵀ · dY` leaves in the im2col-shaped
/// gradient for this tap. `offs[co] = co * chan_len`.
#[inline(always)]
fn tap_sum(
    w_tap: &[f32],
    stage: &[f32],
    base: usize,
    chan_len: usize,
    offs: &[usize; KC],
) -> [[f32; TW]; MR] {
    let mut tap = [[0.0f32; TW]; MR];
    for (pc, kcb) in blocks(w_tap.len() / MR, KC) {
        let mut acc = [[0.0f32; TW]; MR];
        tile_taps(&w_tap[pc * MR..], stage, base + pc * chan_len, &offs[..kcb], &mut acc);
        if pc == 0 {
            tap = acc;
        } else {
            add_tile(&mut tap, &acc);
        }
    }
    tap
}

/// Elements of one column phase of a [`stage_image`] row; a staged row is
/// `stride_w` phases.
pub(crate) fn phase_len(g: &Conv2dGeometry) -> usize {
    (g.in_w + 2 * g.pad_w).div_ceil(g.stride_w)
}

/// Stages a band of image rows for the direct kernels: `C_in` channels (as
/// many as `stage` holds) of `rows` padded rows starting at padded row
/// `p0`, each row split into `stride_w` column phases of `phase_len`
/// elements (phase `f` holds padded columns `f, f + stride_w, …`; one phase
/// is the plain padded row). Padding holds `fill` — zero for convolution,
/// `-inf` for max pooling. Rows are packed back to back, then [`TW`] more
/// `fill`s: the lanes of a partial tile beyond `W_out` read into whatever
/// follows their row, and their results are never stored.
#[inline(always)]
pub(crate) fn stage_image(
    g: &Conv2dGeometry,
    image: &[f32],
    p0: usize,
    rows: usize,
    fill: f32,
    stage: &mut [f32],
) {
    let (sw, phase_len) = (g.stride_w, phase_len(g));
    let (staged, slack) = stage.split_at_mut(stage.len() - TW);
    slack.fill(fill);
    for phase in 0..sw {
        // Element q of the phase is padded column `q * sw + phase`; real
        // for q in [lo, hi).
        let lo = g.pad_w.saturating_sub(phase).div_ceil(sw);
        let hi = (g.in_w + g.pad_w).saturating_sub(phase).div_ceil(sw);
        for (c, chan) in staged.chunks_exact_mut(rows * sw * phase_len).enumerate() {
            for (r, row) in chan.chunks_exact_mut(sw * phase_len).enumerate() {
                let d = &mut row[phase * phase_len..][..phase_len];
                if p0 + r < g.pad_h || p0 + r - g.pad_h >= g.in_h || lo >= hi {
                    d.fill(fill);
                    continue;
                }
                let src = &image[(c * g.in_h + p0 + r - g.pad_h) * g.in_w..][..g.in_w];
                d[..lo].fill(fill);
                d[hi..].fill(fill);
                copy_strided(&mut d[lo..hi], 1, &src[lo * sw + phase - g.pad_w..], sw);
            }
        }
    }
}

/// `dst[k * dst_step] = src[k * src_step]` while both last; unit steps are
/// one `memcpy`.
#[inline(always)]
fn copy_strided(dst: &mut [f32], dst_step: usize, src: &[f32], src_step: usize) {
    if dst_step == 1 && src_step == 1 {
        let n = dst.len().min(src.len());
        dst[..n].copy_from_slice(&src[..n]);
    } else {
        for (d, &s) in dst.iter_mut().step_by(dst_step).zip(src.iter().step_by(src_step)) {
            *d = s;
        }
    }
}

/// Offsets into a [`stage_image`] band of filter taps
/// `r = pc .. pc + offs.len()`, walked `(c, kh, kw)` ascending without a
/// division per tap.
#[inline(always)]
fn tap_offsets(g: &Conv2dGeometry, pc: usize, rows: usize, offs: &mut [usize]) {
    let (sw, phase_len) = (g.stride_w, phase_len(g));
    let khw = g.kernel_h * g.kernel_w;
    let (mut c, mut kh, mut kw) = (pc / khw, pc % khw / g.kernel_w, pc % g.kernel_w);
    let (mut phase, mut q) = (kw % sw, kw / sw);
    for o in offs {
        *o = ((c * rows + kh) * sw + phase) * phase_len + q;
        kw += 1;
        phase += 1;
        if phase == sw {
            (phase, q) = (0, q + 1);
        }
        if kw == g.kernel_w {
            (kw, phase, q) = (0, 0, 0);
            kh += 1;
            if kh == g.kernel_h {
                (kh, c) = (0, c + 1);
            }
        }
    }
}

/// Stages a `d_input` task's `dY` rows `[oh_lo, oh_hi)`: `C_out` channels
/// of `row_len = W + KW - 1` columns back to back, then [`TW`] zeros.
/// `dY[.., ow]` lands at column `ow * stride_w + KW - 1 - pad_w` (clipped
/// to the row), everything else is zero — so tap `kw` of `dX` columns
/// `[iw0, iw0 + TW)` is the contiguous window at `iw0 + KW - 1 - kw`.
#[inline(always)]
fn stage_grad(
    g: &Conv2dGeometry,
    dy: &[f32],
    (out_h, out_w): (usize, usize),
    (oh_lo, oh_hi): (usize, usize),
    stage: &mut [f32],
) {
    let (sw, row_len, shift) = (g.stride_w, g.in_w + g.kernel_w - 1, g.kernel_w - 1);
    // Columns `ow` with `0 <= ow * sw + shift - pad_w < row_len`.
    let lo = g.pad_w.saturating_sub(shift).div_ceil(sw);
    let hi = (row_len + g.pad_w).saturating_sub(shift).div_ceil(sw).min(out_w).max(lo);
    let first = (lo * sw + shift - g.pad_w).min(row_len);
    let (staged, slack) = stage.split_at_mut(stage.len() - TW);
    slack.fill(0.0);
    if oh_lo == oh_hi {
        return; // no dY row in reach: nothing is staged, every tap row is skipped
    }
    for (co, chan) in staged.chunks_exact_mut((oh_hi - oh_lo) * row_len).enumerate() {
        for (r, dst) in chan.chunks_exact_mut(row_len).enumerate() {
            dst.fill(0.0);
            let src = &dy[(co * out_h + oh_lo + r) * out_w..][lo..hi];
            copy_strided(&mut dst[first..], sw, src, 1);
        }
    }
}

/// Runs `cell` over every grid cell: in order on this thread, or as one
/// pool task per cell. The grid never depends on the thread count.
fn run_grid<T: Send>(cells: impl Iterator<Item = T>, cell: impl Fn(T) + Sync) {
    if parallel::current_threads() <= 1 {
        cells.for_each(cell);
    } else {
        let cell = &cell;
        parallel::run_tasks(cells.map(|c| -> Task<'_> { Box::new(move || cell(c)) }).collect());
    }
}

/// One `dW` register tile for one k-block of spatial positions: returns
/// `acc[t][l] = Σ_k x_t[k] · dy[k][l]`, `k` ascending from `+0.0`, for the
/// `DW_TAPS` taps whose [`stage_image`] offsets are `offs` and the `NR`
/// output channels of `dyt` (`[k][NR]`, the block's transposed `dY`). The
/// block starts at output `(oh, ow)` and is walked as runs of consecutive
/// positions of one output row; within a run every tap is one contiguous
/// window of the staged band, sliced to the run length up front so the
/// inner loop indexes without a bounds check.
#[inline(always)]
fn dw_tile(
    stage: &[f32],
    offs: &[usize; DW_TAPS],
    mut dyt: &[f32],
    (mut oh, mut ow): (usize, usize),
    (out_w, row_step): (usize, usize),
) -> [[f32; NR]; DW_TAPS] {
    let mut acc = [[0.0f32; NR]; DW_TAPS];
    while !dyt.is_empty() {
        let run = (out_w - ow).min(dyt.len() / NR);
        let base = oh * row_step + ow;
        let mut xs = [&stage[..0]; DW_TAPS];
        for (x, &off) in xs.iter_mut().zip(offs) {
            *x = &stage[base + off..][..run];
        }
        let (dy, rest) = dyt.split_at(run * NR);
        for (k, dv) in dy.chunks_exact(NR).enumerate() {
            let dv: &[f32; NR] = dv.try_into().expect("NR chunk");
            for (acc_t, x) in acc.iter_mut().zip(&xs) {
                let xv = x[k];
                for (a, &d) in acc_t.iter_mut().zip(dv) {
                    *a += d * xv;
                }
            }
        }
        (dyt, oh, ow) = (rest, oh + 1, 0);
    }
    acc
}

/// Tile-row write-back: overwrite `c_row` with the accumulator row (first
/// k-block, beta = 0 semantics) or add it in.
#[inline(always)]
fn store_row(c_row: &mut [f32], acc_row: &[f32], overwrite: bool) {
    for (cv, av) in c_row.iter_mut().zip(acc_row) {
        *cv = if overwrite { *av } else { *cv + *av };
    }
}

/// Convolution forward for a batch (direct, register-tiled).
///
/// * `input`: `(N, C_in, H, W)` flattened,
/// * `weights`: `(C_out, C_in*KH*KW)` flattened,
/// * `bias`: length `C_out` (may be empty for no bias),
/// * `output`: `(N, C_out, H_out, W_out)` flattened.
///
/// The weights are packed once per call; each `(image, output-row band,
/// filter block)` grid cell then stages its zero-padded input rows and
/// sweeps the row kernel, writing its disjoint block of the output. All
/// scratch comes from the per-thread [`crate::workspace`] arena. See the
/// module docs for the determinism contract.
///
/// # Panics
///
/// Panics on buffer size mismatches.
pub fn conv2d_forward(
    geom: &Conv2dGeometry,
    batch: usize,
    out_channels: usize,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    output: &mut [f32],
) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    let spatial = out_h * out_w;
    let in_len = geom.in_len();
    let out_len = out_channels * spatial;
    let kdim = geom.col_rows();
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    assert_eq!(output.len(), batch * out_len, "output size mismatch");
    assert_eq!(weights.len(), out_channels * kdim, "weight size mismatch");
    assert!(bias.is_empty() || bias.len() == out_channels, "bias size mismatch");
    if batch == 0 || out_channels == 0 {
        return;
    }

    let m_panels = out_channels.div_ceil(MR);
    // Pack the filter matrix once, k-block-major: for each KC block, all
    // MR-row panels of that block back to back. Every grid cell reads it.
    workspace::with_f32(Tag::ConvPackA, m_panels * MR * kdim, |packed_w| {
        let mut off = 0;
        for (pc, kcb) in blocks(kdim, KC) {
            pack_rows_with(
                0,
                out_channels,
                pc,
                kcb,
                |i, p| weights[i * kdim + p],
                &mut packed_w[off..off + m_panels * MR * kcb],
            );
            off += m_panels * MR * kcb;
        }
        let packed_w = &packed_w[..];
        let out = SliceParts::new(output);
        let row_len = phase_len(geom) * geom.stride_w;

        // One grid cell: output rows `[oh0, oh0 + ohn)` x filter panels
        // `[ip0, ip0 + ipn)` of image `n`.
        let cell = |(n, (oh0, ohn), (ip0, ipn)): (usize, (usize, usize), (usize, usize))| {
            // Padded input rows the band's windows cover.
            let rows = (ohn - 1) * geom.stride_h + geom.kernel_h;
            let stage_len = geom.in_channels * rows * row_len + TW;
            workspace::with_f32(Tag::ConvPackB, stage_len, |stage| {
                with_wide_lanes(
                    #[inline(always)]
                    || {
                        let image = &input[n * in_len..(n + 1) * in_len];
                        stage_image(geom, image, oh0 * geom.stride_h, rows, 0.0, stage);
                        let mut offs = [0usize; KC];
                        let mut a_off = 0;
                        for (pc, kcb) in blocks(kdim, KC) {
                            let offs = &mut offs[..kcb];
                            tap_offsets(geom, pc, rows, offs);
                            for oh in oh0..oh0 + ohn {
                                let window_row = (oh - oh0) * geom.stride_h * row_len;
                                let out_row = n * out_len + oh * out_w;
                                for ip in ip0..ip0 + ipn {
                                    let a_panel = &packed_w[a_off + ip * kcb * MR..][..kcb * MR];
                                    let chans = (ip * MR..out_channels).take(MR);
                                    for (ow0, cols) in blocks(out_w, TW) {
                                        let mut acc = [[0.0f32; TW]; MR];
                                        tile_taps(a_panel, stage, window_row + ow0, offs, &mut acc);
                                        for (acc_row, ci) in acc.iter().zip(chans.clone()) {
                                            let c_row =
                                                out.part(out_row + ci * spatial + ow0, cols);
                                            store_row(c_row, &acc_row[..cols], pc == 0);
                                        }
                                    }
                                }
                            }
                            a_off += m_panels * MR * kcb;
                        }
                        for (ci, &bv) in bias.iter().enumerate().skip(ip0 * MR).take(ipn * MR) {
                            let band = n * out_len + ci * spatial + oh0 * out_w;
                            for v in out.part(band, ohn * out_w) {
                                *v += bv;
                            }
                        }
                    },
                );
            });
        };
        let band_rows = (NC / out_w).max(1);
        run_grid(
            (0..batch).flat_map(|n| {
                blocks(out_h, band_rows).flat_map(move |rows| {
                    blocks(m_panels, MC / MR).map(move |panels| (n, rows, panels))
                })
            }),
            cell,
        );
    });
}

/// Convolution backward for a batch.
///
/// Computes weight/bias gradients (accumulated into `d_weights`/`d_bias`)
/// and, when `d_input` is non-empty, the input gradient (overwritten).
///
/// The grid: `dW` tasks own `NC`-column blocks of the weight gradient and
/// `db` tasks `MC`-row filter blocks; both fold the whole batch in image
/// order (so the reduction order never depends on the thread count).
/// `d_input` tasks own `(image, input-row band, channel block)` cells and
/// run the direct row kernel over a staged copy of the `dY` rows they
/// read. See the module docs for the bit-identity argument.
///
/// # Panics
///
/// Panics on buffer size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    geom: &Conv2dGeometry,
    batch: usize,
    out_channels: usize,
    input: &[f32],
    weights: &[f32],
    d_output: &[f32],
    d_weights: &mut [f32],
    d_bias: &mut [f32],
    d_input: &mut [f32],
) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    let spatial = out_h * out_w;
    let in_len = geom.in_len();
    let out_len = out_channels * spatial;
    let kdim = geom.col_rows();
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    assert_eq!(d_output.len(), batch * out_len, "d_output size mismatch");
    assert_eq!(d_weights.len(), out_channels * kdim, "d_weights size mismatch");
    assert!(d_bias.is_empty() || d_bias.len() == out_channels, "d_bias size mismatch");
    assert!(d_input.is_empty() || d_input.len() == batch * in_len, "d_input size mismatch");
    if batch == 0 || out_channels == 0 {
        d_input.fill(0.0);
        return;
    }

    let kc_sp = KC.min(spatial);
    let db_len = d_bias.len();
    let dx_images = if d_input.is_empty() { 0 } else { batch };
    let dw = SliceParts::new(d_weights);
    let db = SliceParts::new(d_bias);
    let dx = SliceParts::new(d_input);

    // One dW task: columns `[j0, j0 + jn)` of the `(C_out, C_in*KH*KW)`
    // weight gradient, whole batch, image order.
    //
    // dW[co][r] += Σ_k dY_n[co][k] · x_n[tap r at position k] for each n
    // ascending, in KC blocks of spatial positions k: one chain per
    // `(co, r)` from `+0.0`, added into `d_weights` (the caller's running
    // gradient) once per block — a per-image `gemm(dY_n, im2col(x_n)ᵀ,
    // beta = 1.0)` fold. The task stages only the channels its taps read;
    // the `dY` transpose is the part repeated across tasks.
    let khw = geom.kernel_h * geom.kernel_w;
    let band_row = phase_len(geom) * geom.stride_w;
    let dw_cell = |j0: usize, jn: usize| {
        let (c_lo, c_hi) = (j0 / khw, (j0 + jn).div_ceil(khw));
        let rows = (out_h - 1) * geom.stride_h + geom.kernel_h;
        let chan_len = rows * band_row;
        let lane_blocks = out_channels.div_ceil(NR);
        workspace::with_f32(Tag::ConvPackA, kc_sp * lane_blocks * NR, |dyt| {
            workspace::with_f32(Tag::ConvPackB, (c_hi - c_lo) * chan_len + TW, |stage| {
                with_wide_lanes(
                    #[inline(always)]
                    || {
                        // The last tile's taps past `jn` keep offset 0: a
                        // valid window, computed and never stored.
                        let mut offs = [0usize; NC + DW_TAPS];
                        tap_offsets(geom, j0, rows, &mut offs[..jn]);
                        offs[..jn].iter_mut().for_each(|o| *o -= c_lo * chan_len);
                        // `dyt[lane block][k][lane]`; lanes past `C_out`
                        // stay zero for the whole task.
                        dyt.fill(0.0);
                        for n in 0..batch {
                            let first_chan = n * in_len + c_lo * geom.in_h * geom.in_w;
                            let dy = &d_output[n * out_len..(n + 1) * out_len];
                            stage_image(geom, &input[first_chan..], 0, rows, 0.0, stage);
                            for (pc, kcb) in blocks(spatial, KC) {
                                for (co, dy_chan) in dy.chunks_exact(spatial).enumerate() {
                                    let lane = &mut dyt[co / NR * kc_sp * NR + co % NR..];
                                    copy_strided(lane, NR, &dy_chan[pc..pc + kcb], 1);
                                }
                                let first = (pc / out_w, pc % out_w);
                                let steps = (out_w, geom.stride_h * band_row);
                                for (lb, dyt) in dyt.chunks_exact(kc_sp * NR).enumerate() {
                                    let dyt = &dyt[..kcb * NR];
                                    let chans = (lb * NR..out_channels).take(NR);
                                    for (t0, taps) in blocks(jn, DW_TAPS) {
                                        let offs = offs[t0..][..DW_TAPS].try_into().expect("taps");
                                        let acc = dw_tile(stage, offs, dyt, first, steps);
                                        for (l, co) in chans.clone().enumerate() {
                                            let dw_row = dw.part(co * kdim + j0 + t0, taps);
                                            for (d, acc_t) in dw_row.iter_mut().zip(&acc) {
                                                *d += acc_t[l];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    },
                );
            });
        });
    };

    // One db task: filter rows `[i0, i0 + il)`;
    // db[c] += Σ_n (serial spatial sum of dY_n[c]) in image order.
    let db_cell = |i0: usize, il: usize| {
        for ci in i0..i0 + il {
            let dbv = &mut db.part(ci, 1)[0];
            for n in 0..batch {
                let dy = &d_output[n * out_len + ci * spatial..][..spatial];
                let mut t = 0.0f32;
                for &v in dy {
                    t += v;
                }
                *dbv += t;
            }
        }
    };

    // One d_input task: image `n`, rows `[ih0, ih0 + ihn)`, input channels
    // `[c0, c0 + cl)`. See the module docs for the fold order.
    let row_len = geom.in_w + geom.kernel_w - 1;
    let dx_cell = |n: usize, (ih0, ihn): (usize, usize), (c0, cl): (usize, usize)| {
        // The dY rows some tap of some band row reads:
        // `oh * stride_h = ih + pad_h - kh`.
        let reach = (ih0 + geom.pad_h).saturating_sub(geom.kernel_h - 1);
        let oh_lo = reach.div_ceil(geom.stride_h);
        let oh_hi = ((ih0 + ihn - 1 + geom.pad_h) / geom.stride_h + 1).min(out_h).max(oh_lo);
        let chan_len = (oh_hi - oh_lo) * row_len;
        let panels = cl.div_ceil(MR);
        workspace::with_f32(Tag::ConvPackA, khw * panels * MR * out_channels, |packed| {
            workspace::with_f32(Tag::ConvPackB, out_channels * chan_len + TW, |stage| {
                with_wide_lanes(
                    #[inline(always)]
                    || {
                        let dy = &d_output[n * out_len..(n + 1) * out_len];
                        stage_grad(geom, dy, (out_h, out_w), (oh_lo, oh_hi), stage);
                        // Per tap, the `Wᵀ` rows of this channel block in MR-row
                        // panels along `co`: slab `tap` = panels x C_out x MR.
                        let slabs = packed.chunks_exact_mut(panels * out_channels * MR);
                        for (tap, slab) in slabs.enumerate() {
                            let w = |c: usize, co: usize| weights[co * kdim + c * khw + tap];
                            pack_rows_with(c0, cl, 0, out_channels, w, slab);
                        }
                        let mut offs = [0usize; KC];
                        for (co, o) in offs.iter_mut().enumerate().take(out_channels) {
                            *o = co * chan_len;
                        }
                        for ih in ih0..ih0 + ihn {
                            // Tap row `kh` reads dilated dY row `u0 - kh`, real when
                            // that is a multiple of stride_h: kh = kh_first,
                            // kh_first + stride_h, … read dY rows oh_top, oh_top - 1, …
                            let u0 = ih + geom.pad_h;
                            let (oh_top, kh_first) = (u0 / geom.stride_h, u0 % geom.stride_h);
                            let tap_rows =
                                (kh_first..geom.kernel_h.min(u0 + 1)).step_by(geom.stride_h);
                            for ip in 0..panels {
                                let chans = (c0 + ip * MR..c0 + cl).take(MR);
                                for (iw0, cols) in blocks(geom.in_w, TW) {
                                    let mut dx_tile = [[0.0f32; TW]; MR];
                                    for (oh, kh) in (0..=oh_top).rev().zip(tap_rows.clone()) {
                                        if oh >= out_h {
                                            continue;
                                        }
                                        for kw in 0..geom.kernel_w {
                                            let base = (oh - oh_lo) * row_len + iw0 + geom.kernel_w
                                                - 1
                                                - kw;
                                            let slab = (kh * geom.kernel_w + kw) * panels + ip;
                                            let w_tap = &packed[slab * out_channels * MR..]
                                                [..out_channels * MR];
                                            let tap = tap_sum(w_tap, stage, base, chan_len, &offs);
                                            add_tile(&mut dx_tile, &tap);
                                        }
                                    }
                                    for (dx_row, c) in dx_tile.iter().zip(chans.clone()) {
                                        let at =
                                            n * in_len + (c * geom.in_h + ih) * geom.in_w + iw0;
                                        store_row(dx.part(at, cols), &dx_row[..cols], true);
                                    }
                                }
                            }
                        }
                    },
                );
            });
        });
    };

    enum Cell {
        Dw(usize, usize),
        Db(usize, usize),
        Dx(usize, (usize, usize), (usize, usize)),
    }
    let band_rows = (NC / geom.in_w).max(1);
    let cells = blocks(kdim, NC)
        .map(|(j0, jn)| Cell::Dw(j0, jn))
        .chain(blocks(db_len, MC).map(|(i0, il)| Cell::Db(i0, il)))
        .chain((0..dx_images).flat_map(|n| {
            blocks(geom.in_h, band_rows).flat_map(move |rows| {
                blocks(geom.in_channels, MC).map(move |chans| Cell::Dx(n, rows, chans))
            })
        }));
    run_grid(cells, |cell| match cell {
        Cell::Dw(j0, jn) => dw_cell(j0, jn),
        Cell::Db(i0, il) => db_cell(i0, il),
        Cell::Dx(n, rows, chans) => dx_cell(n, rows, chans),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_extent_formula() {
        // 5x5 input, 3x3 kernel, stride 1, no pad -> 3x3 output.
        let g = Conv2dGeometry::square(1, 5, 3, 1, 0);
        assert_eq!(g.out_h().unwrap(), 3);
        // pad 1 -> same-size output.
        let g = Conv2dGeometry::square(1, 5, 3, 1, 1);
        assert_eq!(g.out_h().unwrap(), 5);
        // stride 2.
        let g = Conv2dGeometry::square(1, 5, 3, 2, 0);
        assert_eq!(g.out_h().unwrap(), 2);
    }

    #[test]
    fn bad_geometry_is_reported() {
        let g = Conv2dGeometry::square(1, 2, 5, 1, 0);
        assert!(g.out_h().is_err());
        let g = Conv2dGeometry { stride_h: 0, ..Conv2dGeometry::square(1, 5, 3, 1, 0) };
        assert!(g.out_h().is_err());
    }

    #[test]
    fn conv_forward_matches_manual() {
        // Single channel 3x3 image, one 2x2 kernel of ones -> sum pooling.
        let g = Conv2dGeometry::square(1, 3, 2, 1, 0);
        let input = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let weights = vec![1.0; 4];
        let bias = vec![0.5];
        let mut output = vec![0.0; 4];
        conv2d_forward(&g, 1, 1, &input, &weights, &bias, &mut output);
        assert_eq!(output, vec![12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn conv_forward_with_padding_zero_fills() {
        let g = Conv2dGeometry::square(1, 2, 3, 1, 1);
        let input = vec![1., 1., 1., 1.];
        let weights = vec![1.0; 9];
        let mut output = vec![0.0; 4];
        conv2d_forward(&g, 1, 1, &input, &weights, &[], &mut output);
        // Every 3x3 window over the padded 4x4 contains the full 2x2 block.
        assert_eq!(output, vec![4.0; 4]);
    }

    /// Numerical gradient check of the full conv backward pass.
    #[test]
    fn conv_backward_matches_finite_difference() {
        let g = Conv2dGeometry::square(2, 4, 3, 1, 1);
        let batch = 2;
        let out_channels = 3;
        let in_len = g.in_len();
        let out_len = out_channels * g.col_cols().unwrap();

        let mut input: Vec<f32> =
            (0..batch * in_len).map(|i| ((i % 7) as f32 - 3.0) * 0.3).collect();
        let weights: Vec<f32> =
            (0..out_channels * g.col_rows()).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect();
        let bias = vec![0.1, -0.2, 0.3];
        let d_output: Vec<f32> =
            (0..batch * out_len).map(|i| ((i % 3) as f32 - 1.0) * 0.5).collect();

        let loss = |input: &[f32], weights: &[f32], bias: &[f32]| -> f32 {
            let mut output = vec![0.0; batch * out_len];
            conv2d_forward(&g, batch, out_channels, input, weights, bias, &mut output);
            // Loss = <output, d_output>, so dL/d* flows through d_output.
            output.iter().zip(d_output.iter()).map(|(o, d)| o * d).sum()
        };

        let mut d_weights = vec![0.0; weights.len()];
        let mut d_bias = vec![0.0; bias.len()];
        let mut d_input = vec![0.0; input.len()];
        conv2d_backward(
            &g,
            batch,
            out_channels,
            &input,
            &weights,
            &d_output,
            &mut d_weights,
            &mut d_bias,
            &mut d_input,
        );

        let eps = 1e-2;
        // Spot-check a handful of weight gradients.
        for &wi in &[0usize, 7, 19, weights.len() - 1] {
            let mut wp = weights.clone();
            wp[wi] += eps;
            let mut wm = weights.clone();
            wm[wi] -= eps;
            let numeric = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            assert!(
                (d_weights[wi] - numeric).abs() < 1e-2,
                "dW[{wi}]: analytic {} vs numeric {numeric}",
                d_weights[wi]
            );
        }
        // Bias gradients.
        for bi in 0..bias.len() {
            let mut bp = bias.clone();
            bp[bi] += eps;
            let mut bm = bias.clone();
            bm[bi] -= eps;
            let numeric = (loss(&input, &weights, &bp) - loss(&input, &weights, &bm)) / (2.0 * eps);
            assert!((d_bias[bi] - numeric).abs() < 1e-2);
        }
        // Input gradients.
        for &ii in &[0usize, 5, 17, input.len() - 1] {
            let orig = input[ii];
            input[ii] = orig + eps;
            let lp = loss(&input, &weights, &bias);
            input[ii] = orig - eps;
            let lm = loss(&input, &weights, &bias);
            input[ii] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((d_input[ii] - numeric).abs() < 1e-2);
        }
    }
}
