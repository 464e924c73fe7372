//! 2-D convolution: direct register-tiled forward, input gradient and
//! weight gradient, for one filter bank or several over one input.
//!
//! Layout conventions follow Caffe blobs:
//!
//! * inputs and outputs are `(N, C, H, W)` row-major,
//! * weights are `(C_out, C_in, KH, KW)`, read as the `C_out x C_in*KH*KW`
//!   filter matrix whose column index `r` encodes `(c, kh, kw)`.
//!
//! **Banks.** [`conv2d_forward_banks`] / [`conv2d_backward_banks`] run `B`
//! filter banks over one input and one geometry — an Inception module's
//! sibling 1x1 convolutions — as one convolution: the banks' filters are
//! stacked in bank order and every tile, lane block and task grid below
//! runs over the stacked output channels; only loads and stores ask which
//! bank a channel belongs to. Each bank's output planes may sit inside a
//! wider tensor (`image_len` apart), so a bank writes straight into its
//! slice of a concatenation. [`conv2d_forward`] / [`conv2d_backward`] are
//! the one-bank case. Every call is padded with empty banks to four, so
//! the kernels are compiled once, not once per bank count and crate.
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
//! the test oracle in `tests/oracle/`). A channel's chain never meets
//! another channel's, so stacking banks changes no bit.
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
//! only when both addends are. With several banks each bank runs that
//! chain over its own `co` on its own tile, and the bank tiles are summed
//! in bank order, `((g_0 + g_1) + g_2) + …`, before the sum is added to
//! the caller's `d_input`. When `C_in < MR` the tile's spare rows hold the
//! channels of more images ([`image_slots`]), each reading its own staged
//! `dY`.
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
//! `dy * 0.0` products. Chains of different images are independent too:
//! when `C_out < NR` a lane block holds `G` images side by side
//! ([`image_slots`]) over a band that interleaves their staged values, and
//! the chains are kept per k-block until they are added image by image.
//! On the AVX-512F tier a lane block is `2 * NR` lanes: the channels of two
//! `NR`-lane blocks, or, when one block holds every channel, `2G` images.
//! Lanes past the channels and taps past the task's last are computed and
//! never stored.
//!
//! Parallelism is a fixed grid derived only from the geometry and batch
//! size, never from the thread count:
//!
//! * **forward** — tasks are `(image, output-row band, MC-filter block)`
//!   cells, so one wide image fans out over its rows even at batch 1;
//! * **backward** — `dW` tasks are `NC`-column blocks of the weight
//!   gradient (each folds the whole batch in image order), `db` tasks are
//!   `MC`-row filter blocks, and `d_input` tasks are `(image group,
//!   input-row band, MC-channel block)` cells. Every task writes a disjoint
//!   region (through [`parallel::SliceParts`]) and folds its own data in a
//!   fixed serial order, so results are **bit-identical** at any
//!   `SHMCAFFE_THREADS`.
//!
//! Scratch (filter panels, staged bands, the `dY` transpose) comes from the
//! per-thread [`crate::workspace`] arena, so steady-state forward/backward
//! performs zero heap allocations (asserted by `tests/alloc_free.rs`).

use crate::gemm::{blocks, pack_rows_with, KC, MC, MR, NC, NR};
use crate::parallel::{self, SliceParts, Task};
use crate::simd::{with_wide_lanes, Tier};
use crate::workspace::{self, Tag};
use crate::TensorError;

/// Columns of the forward / `d_input` register tile: `MR` channels x `TW`
/// consecutive columns of one row, one 512-bit lane per channel on the
/// AVX-512F tier, two 256-bit lanes on AVX2. Also the wide max-pool tile
/// ([`crate::pool`]) and the LRN strip ([`crate::lrn`]).
pub(crate) const TW: usize = 16;

/// Filter taps per `dW` register tile: `DW_TAPS` taps x `NR` lanes (`2 *
/// NR` on the AVX-512F tier), one 256-bit (512-bit) accumulator per tap.
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

/// The forward register tile: `acc[i][j] += w[p][i] * x[base + offs[p] + j]`
/// for `p` ascending — per step one broadcast weight per channel against
/// one contiguous `TW`-wide window of the staged band. The same
/// multiply-then-add per element as the gemm micro-kernel, on a tile twice
/// as wide.
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

/// The `d_input` register tile, [`tile_taps`] over `S` image slots:
/// `acc[i][j] += w[p][i] * x[bases[i / (MR / S)] + offs[p] + j]` — the
/// tile's rows are `S` groups of `MR / S`, each group reading its own
/// image's window. (A separate loop from forward's: written this way the
/// forward tile no longer stays in registers.)
#[inline(always)]
fn slot_taps<const S: usize>(
    w: &[f32],
    x: &[f32],
    bases: [usize; S],
    offs: &[usize],
    acc: &mut [[f32; TW]; MR],
) {
    for (wv, &off) in w.chunks_exact(MR).zip(offs) {
        let wv: &[f32; MR] = wv.try_into().expect("MR chunk");
        let mut xs: [&[f32; TW]; S] = [x[..TW].try_into().expect("TW window"); S];
        for (xv, &base) in xs.iter_mut().zip(&bases) {
            *xv = x[base + off..][..TW].try_into().expect("TW window");
        }
        for i in 0..MR {
            let (wi, xv) = (wv[i], xs[i / (MR / S)]);
            for (a, &xj) in acc[i].iter_mut().zip(xv) {
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
fn tap_sum<const S: usize>(
    w_tap: &[f32],
    stage: &[f32],
    bases: [usize; S],
    chan_len: usize,
    offs: &[usize; KC],
) -> [[f32; TW]; MR] {
    let mut tap = [[0.0f32; TW]; MR];
    for (pc, kcb) in blocks(w_tap.len() / MR, KC) {
        let mut acc = [[0.0f32; TW]; MR];
        let mut block_bases = bases;
        block_bases.iter_mut().for_each(|b| *b += pc * chan_len);
        slot_taps(&w_tap[pc * MR..], stage, block_bases, &offs[..kcb], &mut acc);
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
#[inline]
pub(crate) fn phase_len(g: &Conv2dGeometry) -> usize {
    (g.in_w + 2 * g.pad_w).div_ceil(g.stride_w)
}

/// Stages a band of image rows for the direct kernels: `C_in` channels (as
/// many as `stage` holds) of `rows` padded rows starting at padded row
/// `p0`, each row split into `stride_w` column phases of `phase_len`
/// elements (phase `f` holds padded columns `f, f + stride_w, …`; one phase
/// is the plain padded row). An element is `G` consecutive floats, slot `s`
/// holding image `images[s]`: one image is the plain band, more are the
/// lane-packed `dW` band ([`image_slots`]). Padding holds `fill` — zero for
/// convolution, `-inf` for max pooling. Rows are packed back to back, then
/// [`TW`] more `fill` elements: the lanes of a partial tile beyond `W_out`
/// read into whatever follows their row, and their results are never
/// stored.
#[inline(always)]
pub(crate) fn stage_image<const G: usize>(
    g: &Conv2dGeometry,
    images: [&[f32]; G],
    p0: usize,
    rows: usize,
    fill: f32,
    stage: &mut [f32],
) {
    let (sw, phase_len) = (g.stride_w, phase_len(g));
    let row_len = sw * phase_len;
    let (staged, _) = stage.as_chunks_mut::<G>();
    let (staged, slack) = staged.split_at_mut(staged.len() - TW);
    slack.fill([fill; G]);
    // Band rows `[r_lo, r_hi)` are image rows; the rest are padding.
    let r_lo = g.pad_h.saturating_sub(p0).min(rows);
    let r_hi = (g.pad_h + g.in_h).saturating_sub(p0).clamp(r_lo, rows);
    for (c, chan) in staged.chunks_exact_mut(rows * row_len).enumerate() {
        let (pad_top, rest) = chan.split_at_mut(r_lo * row_len);
        let (real, pad_bottom) = rest.split_at_mut((r_hi - r_lo) * row_len);
        pad_top.fill([fill; G]);
        pad_bottom.fill([fill; G]);
        if r_lo == r_hi {
            continue;
        }
        let first_row = (c * g.in_h + p0 + r_lo - g.pad_h) * g.in_w;
        let src = images.map(|image| &image[first_row..][..(r_hi - r_lo) * g.in_w]);
        if g.pad_w == 0 && g.in_w == row_len && sw == 1 {
            // Unpadded rows lie back to back in the image and the band.
            copy_row(real, src, 1);
        } else if g.pad_w == 0 && g.in_w == row_len && sw == 2 && G == 1 {
            // Unpadded stride 2 over an even width: each row splits into its
            // even and odd columns in one pass of pairs, which compiles to
            // vector de-interleaves.
            let rows = real.as_flattened_mut().chunks_exact_mut(row_len);
            for (d, s) in rows.zip(src[0].chunks_exact(g.in_w)) {
                let (even, odd) = d.split_at_mut(phase_len);
                for ((e, o), pair) in even.iter_mut().zip(odd).zip(s.as_chunks::<2>().0) {
                    (*e, *o) = (pair[0], pair[1]);
                }
            }
        } else {
            for phase in 0..sw {
                // Element q of the phase is padded column `q * sw + phase`;
                // real for q in [lo, hi).
                let lo = g.pad_w.saturating_sub(phase).div_ceil(sw);
                let hi = (g.in_w + g.pad_w).saturating_sub(phase).div_ceil(sw).max(lo);
                for (r, row) in real.chunks_exact_mut(row_len).enumerate() {
                    let d = &mut row[phase * phase_len..][..phase_len];
                    d[..lo].fill([fill; G]);
                    d[hi..].fill([fill; G]);
                    if lo < hi {
                        let first = r * g.in_w + lo * sw + phase - g.pad_w;
                        copy_row(&mut d[lo..hi], src.map(|s| &s[first..]), sw);
                    }
                }
            }
        }
    }
}

/// `dst[q][s] = srcs[s][q * step]`: elements `step` apart of every slot's
/// source, interleaved slot by slot. One slot at unit step is one `memcpy`.
#[inline(always)]
fn copy_row<const G: usize>(dst: &mut [[f32; G]], srcs: [&[f32]; G], step: usize) {
    let n = dst.len();
    let srcs = srcs.map(|src| &src[..(n - 1) * step + 1]);
    if G == 1 && step == 1 {
        dst.as_flattened_mut().copy_from_slice(srcs[0]);
    } else if step == 1 {
        for (q, d) in dst.iter_mut().enumerate() {
            for (v, src) in d.iter_mut().zip(srcs) {
                *v = src[q];
            }
        }
    } else {
        for (q, d) in dst.iter_mut().enumerate() {
            for (v, src) in d.iter_mut().zip(srcs) {
                *v = src[q * step];
            }
        }
    }
}

/// `dst[k * step] = src[k]` while both last; a unit step is one `memcpy`.
#[inline(always)]
fn copy_spread(dst: &mut [f32], step: usize, src: &[f32]) {
    if step == 1 {
        let n = dst.len().min(src.len());
        dst[..n].copy_from_slice(&src[..n]);
    } else {
        for (d, &s) in dst.iter_mut().step_by(step).zip(src) {
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

/// Stages the `dY` rows `[oh_lo, oh_hi)` of one bank for a `d_input` task
/// into `stage`: its channels of `row_len = W + KW - 1` columns back to
/// back. `dY[.., ow]` lands at column `ow * stride_w + KW - 1 - pad_w`
/// (clipped to the row), everything else is zero — so tap `kw` of `dX`
/// columns `[iw0, iw0 + TW)` is the contiguous window at
/// `iw0 + KW - 1 - kw`.
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
    for (co, chan) in stage.chunks_exact_mut((oh_hi - oh_lo) * row_len).enumerate() {
        let src = &dy[(co * out_h + oh_lo) * out_w..];
        if sw == 1 && (lo, first, hi) == (0, 0, row_len) && out_w == row_len {
            // The staged rows are the `dY` rows (a 1x1 kernel, no padding):
            // one run.
            chan.copy_from_slice(&src[..chan.len()]);
            continue;
        }
        for (r, dst) in chan.chunks_exact_mut(row_len).enumerate() {
            dst.fill(0.0);
            copy_spread(&mut dst[first..], sw, &src[r * out_w..][lo..hi]);
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

/// Images side by side in one register tile `width` channels wide (the
/// `NR` lanes of a `dW` tile, the `MR` rows of a `d_input` tile) for
/// `channels` channels: the largest power of two `G` with
/// `G * channels <= width`, at most `max` (a power of two) and the batch
/// rounded up to a power of two. A layer narrower than the tile fills the
/// spare lanes or rows with more images' chains instead of zeros. `max` is
/// the widest slot count the kernel is instantiated for — the widths the
/// proxy's 2-channel convolutions use — so a 1-channel layer leaves some
/// lanes idle. A function of the geometry and batch only.
fn image_slots(width: usize, channels: usize, batch: usize, max: usize) -> usize {
    let fit = (width / channels.max(1)).clamp(1, max);
    (1 << fit.ilog2()).min(batch.next_power_of_two())
}

/// One `dW` register tile for one k-block of spatial positions: returns
/// `acc[t][l] = Σ_k x_t[k][l % S] · dy[k][l]`, `k` ascending from `+0.0`,
/// for the `DW_TAPS` taps whose [`stage_image`] offsets are `offs` over a
/// band of `S` image slots, and the `L` lanes of `dyt` (`[k][L]`, the
/// block's transposed `dY`). The block starts at output `(oh, ow)` and is
/// walked as runs of consecutive positions of one output row; within a run
/// every tap is one contiguous window of the staged band, sliced to the
/// run length up front so the inner loop indexes without a bounds check.
/// At `S = 1` a tap's value is broadcast to every lane; at `S > 1` the `S`
/// slots of one element are repeated across the lanes (one 64-, 128- or
/// 256-bit broadcast).
#[inline(always)]
fn dw_tile<const L: usize, const S: usize>(
    stage: &[f32],
    offs: &[usize; DW_TAPS],
    mut dyt: &[f32],
    (mut oh, mut ow): (usize, usize),
    (out_w, row_step): (usize, usize),
) -> [[f32; L]; DW_TAPS] {
    let (band, _) = stage.as_chunks::<S>();
    let mut acc = [[0.0f32; L]; DW_TAPS];
    while !dyt.is_empty() {
        let run = (out_w - ow).min(dyt.len() / L);
        let base = oh * row_step + ow;
        let mut xs = [&band[..0]; DW_TAPS];
        for (x, &off) in xs.iter_mut().zip(offs) {
            *x = &band[base + off..][..run];
        }
        let (dy, rest) = dyt.split_at(run * L);
        for (k, dv) in dy.chunks_exact(L).enumerate() {
            let dv: &[f32; L] = dv.try_into().expect("L chunk");
            for (acc_t, x) in acc.iter_mut().zip(&xs) {
                let xv = &x[k];
                for (l, (a, &d)) in acc_t.iter_mut().zip(dv).enumerate() {
                    *a += d * xv[l % S];
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

/// One filter bank of [`conv2d_forward_banks`]: `C_b` filters over the
/// shared input, and where their output planes go.
#[derive(Debug, Default)]
pub struct Bank<'a> {
    /// The `(C_b, C_in*KH*KW)` filter matrix; `C_b` is its row count.
    pub weights: &'a [f32],
    /// Length `C_b`, or empty for no bias.
    pub bias: &'a [f32],
    /// The output planes: channel `c` of image `n` is the `H_out x W_out`
    /// plane at `n * image_len + c * H_out * W_out`. The slice may start
    /// inside a wider tensor, at the bank's channels of a concatenation.
    pub output: &'a mut [f32],
    /// Elements from one image's planes to the next image's
    /// (`C_b * H_out * W_out` for a tensor of the bank's own).
    pub image_len: usize,
}

/// One filter bank of [`conv2d_backward_banks`]: its filters, the gradient
/// w.r.t. its output planes and the parameter gradients it accumulates.
#[derive(Debug, Default)]
pub struct BankGrad<'a> {
    /// The `(C_b, C_in*KH*KW)` filter matrix; `C_b` is its row count.
    pub weights: &'a [f32],
    /// Gradient w.r.t. the bank's output, laid out as [`Bank::output`].
    pub d_output: &'a [f32],
    /// Elements from one image's `d_output` planes to the next image's.
    pub image_len: usize,
    /// `(C_b, C_in*KH*KW)` weight gradient, accumulated into.
    pub d_weights: &'a mut [f32],
    /// Length `C_b` bias gradient, accumulated into; empty for no bias.
    pub d_bias: &'a mut [f32],
}

/// The most banks one call takes: an Inception module's three siblings
/// and one more. The kernels are compiled for this many banks only.
const MAX_BANKS: usize = 4;

/// `banks` padded with empty banks to [`MAX_BANKS`], so every bank count
/// runs the one compiled kernel. An empty bank owns no stacked channel and
/// is skipped wherever a loop runs over banks: it changes no bit.
fn pad_banks<T: Default, const B: usize>(banks: [T; B]) -> [T; MAX_BANKS] {
    const { assert!(B <= MAX_BANKS, "at most MAX_BANKS banks") };
    let mut banks = banks.into_iter();
    std::array::from_fn(|_| banks.next().unwrap_or_default())
}

/// The output channels of the banks stacked in bank order: bank `b` owns
/// stacked channels `[start[b], start[b] + len[b])`. Tiles, lane blocks and
/// task grids run over the stacked channels; only loads and stores ask
/// which bank a channel belongs to.
#[derive(Debug, Clone, Copy)]
struct Stack {
    start: [usize; MAX_BANKS],
    len: [usize; MAX_BANKS],
    total: usize,
}

impl Stack {
    /// Stacks banks of `weights[b].len() / kdim` filters each.
    fn new(weights: [&[f32]; MAX_BANKS], kdim: usize) -> Self {
        let len = weights.map(|w| {
            assert!(kdim > 0 && w.len() % kdim == 0, "weight size mismatch");
            w.len() / kdim
        });
        let (mut start, mut total) = ([0; MAX_BANKS], 0);
        for (s, &l) in start.iter_mut().zip(&len) {
            (*s, total) = (total, total + l);
        }
        Stack { start, len, total }
    }

    /// `(bank, channel within the bank)` of stacked channel `ci < total`.
    #[inline(always)]
    fn locate(&self, ci: usize) -> (usize, usize) {
        let b = self.start.iter().rposition(|&s| s <= ci).expect("a stacked channel");
        (b, ci - self.start[b])
    }
}

/// Asserts that a slice of `len` elements holds `batch` images of `planes`
/// elements each, `image_len` apart.
fn check_planes(len: usize, image_len: usize, batch: usize, planes: usize, what: &str) {
    assert!(
        image_len >= planes && (batch == 0 || len >= (batch - 1) * image_len + planes),
        "{what} size mismatch"
    );
}

/// Convolution forward for a batch (direct, register-tiled): the one-bank
/// case of [`conv2d_forward_banks`].
///
/// * `input`: `(N, C_in, H, W)` flattened,
/// * `weights`: `(C_out, C_in*KH*KW)` flattened,
/// * `bias`: length `C_out` (may be empty for no bias),
/// * `output`: `(N, C_out, H_out, W_out)` flattened.
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
    let image_len = out_channels * geom.col_cols().expect("invalid geometry");
    assert_eq!(output.len(), batch * image_len, "output size mismatch");
    assert_eq!(weights.len(), out_channels * geom.col_rows(), "weight size mismatch");
    conv2d_forward_banks(geom, batch, input, [Bank { weights, bias, output, image_len }]);
}

/// Multi-bank convolution forward: `B <= 4` filter banks over one input
/// and one geometry — the sibling 1x1 convolutions of an Inception module —
/// in one pass over one staged copy of the input.
///
/// The banks' filters are stacked in bank order into one filter matrix and
/// packed once per call; each `(image, output-row band, filter block)` grid
/// cell then stages its zero-padded input rows and sweeps the row kernel,
/// storing each output channel into its bank's planes and adding that
/// bank's bias. Every output element sees exactly the operations a
/// convolution of its bank alone performs (see the module docs), so the
/// result is bit-identical to `B` separate [`conv2d_forward`] calls. All
/// scratch comes from the per-thread [`crate::workspace`] arena.
///
/// # Panics
///
/// Panics on buffer size mismatches.
pub fn conv2d_forward_banks<const B: usize>(
    geom: &Conv2dGeometry,
    batch: usize,
    input: &[f32],
    banks: [Bank<'_>; B],
) {
    forward_banks(geom, batch, input, pad_banks(banks));
}

/// [`conv2d_forward_banks`] over its banks padded to [`MAX_BANKS`].
fn forward_banks(geom: &Conv2dGeometry, batch: usize, input: &[f32], banks: [Bank<'_>; MAX_BANKS]) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    let spatial = out_h * out_w;
    let in_len = geom.in_len();
    let kdim = geom.col_rows();
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    let stack = Stack::new(banks.each_ref().map(|b| b.weights), kdim);
    for (bank, &c_b) in banks.iter().zip(&stack.len) {
        assert!(bank.bias.is_empty() || bank.bias.len() == c_b, "bias size mismatch");
        check_planes(bank.output.len(), bank.image_len, batch, c_b * spatial, "output");
    }
    if batch == 0 || stack.total == 0 {
        return;
    }
    let weights = banks.each_ref().map(|b| b.weights);
    let bias = banks.each_ref().map(|b| b.bias);
    let image_len = banks.each_ref().map(|b| b.image_len);
    let out = banks.map(|b| SliceParts::new(b.output));

    let m_panels = stack.total.div_ceil(MR);
    // Pack the stacked filter matrix once, k-block-major: for each KC
    // block, all MR-row panels of that block back to back. Every grid cell
    // reads it.
    workspace::with_f32(Tag::ConvPackA, m_panels * MR * kdim, |packed_w| {
        let mut off = 0;
        for (pc, kcb) in blocks(kdim, KC) {
            let w = |i: usize, p: usize| {
                let (b, c) = stack.locate(i);
                weights[b][c * kdim + p]
            };
            pack_rows_with(0, stack.total, pc, kcb, w, &mut packed_w[off..][..m_panels * MR * kcb]);
            off += m_panels * MR * kcb;
        }
        let packed_w = &packed_w[..];
        let row_len = phase_len(geom) * geom.stride_w;
        let tier = Tier::host();

        // One grid cell: output rows `[oh0, oh0 + ohn)` x filter panels
        // `[ip0, ip0 + ipn)` of image `n`.
        let cell = |(n, (oh0, ohn), (ip0, ipn)): (usize, (usize, usize), (usize, usize))| {
            // Padded input rows the band's windows cover.
            let rows = (ohn - 1) * geom.stride_h + geom.kernel_h;
            let stage_len = geom.in_channels * rows * row_len + TW;
            workspace::with_f32(Tag::ConvPackB, stage_len, |stage| {
                with_wide_lanes(
                    tier,
                    #[inline(always)]
                    |_| {
                        let image = &input[n * in_len..(n + 1) * in_len];
                        stage_image(geom, [image], oh0 * geom.stride_h, rows, 0.0, stage);
                        let mut offs = [0usize; KC];
                        let mut a_off = 0;
                        for (pc, kcb) in blocks(kdim, KC) {
                            let offs = &mut offs[..kcb];
                            tap_offsets(geom, pc, rows, offs);
                            for oh in oh0..oh0 + ohn {
                                let window_row = (oh - oh0) * geom.stride_h * row_len;
                                for ip in ip0..ip0 + ipn {
                                    let a_panel = &packed_w[a_off + ip * kcb * MR..][..kcb * MR];
                                    let chans = (ip * MR..stack.total).take(MR);
                                    for (ow0, cols) in blocks(out_w, TW) {
                                        let mut acc = [[0.0f32; TW]; MR];
                                        tile_taps(a_panel, stage, window_row + ow0, offs, &mut acc);
                                        for (acc_row, ci) in acc.iter().zip(chans.clone()) {
                                            let (b, c) = stack.locate(ci);
                                            let at = n * image_len[b] + c * spatial + oh * out_w;
                                            let c_row = out[b].part(at + ow0, cols);
                                            store_row(c_row, &acc_row[..cols], pc == 0);
                                        }
                                    }
                                }
                            }
                            a_off += m_panels * MR * kcb;
                        }
                        for ci in (ip0 * MR..stack.total).take(ipn * MR) {
                            let (b, c) = stack.locate(ci);
                            if let Some(&bv) = bias[b].get(c) {
                                let band = n * image_len[b] + c * spatial + oh0 * out_w;
                                for v in out[b].part(band, ohn * out_w) {
                                    *v += bv;
                                }
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

/// Convolution backward for a batch: the one-bank case of
/// [`conv2d_backward_banks`].
///
/// Computes weight/bias gradients (accumulated into `d_weights`/`d_bias`)
/// and, when `d_input` is non-empty, the input gradient (overwritten).
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
    let image_len = out_channels * geom.col_cols().expect("invalid geometry");
    assert_eq!(d_output.len(), batch * image_len, "d_output size mismatch");
    assert_eq!(d_weights.len(), out_channels * geom.col_rows(), "d_weights size mismatch");
    // The banked kernel adds into `d_input`; a sum that starts at `+0.0` is
    // never `-0.0`, so adding it to zeros stores its exact bits.
    d_input.fill(0.0);
    let bank = BankGrad { weights, d_output, image_len, d_weights, d_bias };
    conv2d_backward_banks(geom, batch, input, [bank], d_input);
}

/// Multi-bank convolution backward: the gradients of
/// [`conv2d_forward_banks`] in one pass over one staged copy of the input.
///
/// Each bank's `dW`/`db` accumulate exactly as that bank's own backward
/// would. When `d_input` is non-empty, the input gradient of every bank —
/// each its own `+0.0`-seeded chain over taps, as [`conv2d_backward`]
/// computes it — is summed in bank order, `((g_0 + g_1) + g_2) + …`, and
/// that sum is **added** to `d_input` (zero it first for a plain input
/// gradient).
///
/// The grid: `dW` tasks own `NC`-column blocks of the stacked weight
/// gradient and `db` tasks `MC`-row blocks of the stacked channels; both
/// fold the whole batch in image order (so the reduction order never
/// depends on the thread count). `d_input` tasks own `(image group,
/// input-row band, channel block)` cells and run the direct row kernel over
/// a staged copy of every bank's `dY` rows they read, against `Wᵀ` panels
/// packed once per call. See the module docs for the bit-identity argument.
///
/// # Panics
///
/// Panics on buffer size mismatches.
pub fn conv2d_backward_banks<const B: usize>(
    geom: &Conv2dGeometry,
    batch: usize,
    input: &[f32],
    banks: [BankGrad<'_>; B],
    d_input: &mut [f32],
) {
    backward_banks(geom, batch, input, pad_banks(banks), d_input);
}

/// [`conv2d_backward_banks`] over its banks padded to [`MAX_BANKS`].
fn backward_banks(
    geom: &Conv2dGeometry,
    batch: usize,
    input: &[f32],
    banks: [BankGrad<'_>; MAX_BANKS],
    d_input: &mut [f32],
) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    let spatial = out_h * out_w;
    let in_len = geom.in_len();
    let kdim = geom.col_rows();
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    let stack = Stack::new(banks.each_ref().map(|b| b.weights), kdim);
    for (bank, &c_b) in banks.iter().zip(&stack.len) {
        check_planes(bank.d_output.len(), bank.image_len, batch, c_b * spatial, "d_output");
        assert_eq!(bank.d_weights.len(), c_b * kdim, "d_weights size mismatch");
        assert!(bank.d_bias.is_empty() || bank.d_bias.len() == c_b, "d_bias size mismatch");
    }
    assert!(d_input.is_empty() || d_input.len() == batch * in_len, "d_input size mismatch");
    if batch == 0 || stack.total == 0 {
        return;
    }

    let any_bias = banks.iter().any(|b| !b.d_bias.is_empty());
    let dx_images = if d_input.is_empty() { 0 } else { batch };
    let dx_slots = image_slots(MR, geom.in_channels, batch, 2);
    // `d_input` tile row `r` is input channel `r % per_slot` of image slot
    // `r / per_slot`: a whole panel per slot when images share the tile.
    let per_slot = if dx_slots == 1 { geom.in_channels } else { MR / dx_slots };
    let wt_panels = (dx_slots * per_slot).div_ceil(MR);
    let khw = geom.kernel_h * geom.kernel_w;
    let wt_len = if dx_images == 0 { 0 } else { khw * wt_panels * MR * stack.total };
    // The `Wᵀ` panels every `d_input` cell reads, packed once per call: per
    // tap, MR-row panels of tile rows along the stacked `co`.
    workspace::with_f32(Tag::ConvPackA, wt_len, |packed_wt| {
        for (tap, slab) in packed_wt.chunks_exact_mut(wt_panels * MR * stack.total).enumerate() {
            let banks = &banks;
            let w = |r: usize, co: usize| {
                let (b, k) = stack.locate(co);
                let c = (r % per_slot).min(geom.in_channels - 1);
                banks[b].weights[k * kdim + c * khw + tap]
            };
            pack_rows_with(0, dx_slots * per_slot, 0, stack.total, w, slab);
        }
        let ctx = Backward {
            geom,
            batch,
            input,
            stack,
            out: (out_h, out_w),
            d_output: banks.each_ref().map(|b| b.d_output),
            image_len: banks.each_ref().map(|b| b.image_len),
            d_weights: banks.map(|b| {
                let d_bias = (!b.d_bias.is_empty()).then(|| SliceParts::new(b.d_bias));
                (SliceParts::new(b.d_weights), d_bias)
            }),
            d_input: SliceParts::new(d_input),
            packed_wt,
            wt_panels,
            tier: Tier::host(),
        };

        enum Cell {
            Dw(usize, usize),
            Db(usize, usize),
            Dx((usize, usize), (usize, usize), (usize, usize)),
        }
        let slots = image_slots(NR, stack.total, batch, 4);
        let band_rows = (NC / geom.in_w).max(1);
        let db_channels = if any_bias { stack.total } else { 0 };
        let cells = blocks(kdim, NC)
            .map(|(j0, jn)| Cell::Dw(j0, jn))
            .chain(blocks(db_channels, MC).map(|(i0, il)| Cell::Db(i0, il)))
            .chain(blocks(dx_images, dx_slots).flat_map(|images| {
                blocks(geom.in_h, band_rows).flat_map(move |rows| {
                    blocks(geom.in_channels, MC).map(move |chans| Cell::Dx(images, rows, chans))
                })
            }));
        run_grid(cells, |cell| match cell {
            Cell::Dw(j0, jn) => ctx.dw_cell(slots, j0, jn),
            Cell::Db(i0, il) => ctx.db_cell(i0, il),
            Cell::Dx(images, rows, chans) => match dx_slots {
                1 => ctx.dx_cell::<1>(images, rows, chans),
                _ => ctx.dx_cell::<2>(images, rows, chans),
            },
        });
    });
}

/// What every cell of one [`conv2d_backward_banks`] grid reads, and the
/// disjoint-part handles it writes through.
struct Backward<'a> {
    geom: &'a Conv2dGeometry,
    batch: usize,
    input: &'a [f32],
    stack: Stack,
    /// `(H_out, W_out)`.
    out: (usize, usize),
    d_output: [&'a [f32]; MAX_BANKS],
    image_len: [usize; MAX_BANKS],
    /// Per bank: `dW`, and `db` unless the bank has no bias.
    d_weights: [(SliceParts<'a, f32>, Option<SliceParts<'a, f32>>); MAX_BANKS],
    d_input: SliceParts<'a, f32>,
    /// The call's packed `Wᵀ` panels: per tap, `wt_panels` panels x
    /// stacked `C_out` x `MR` (see [`Backward::dx_cell`] for the rows).
    packed_wt: &'a [f32],
    wt_panels: usize,
    /// The call's wide-lane tier, read once so every task runs one shape.
    tier: Tier,
}

impl Backward<'_> {
    /// Image `n`'s `dY` planes of stacked channel `co`.
    #[inline(always)]
    fn dy_plane(&self, n: usize, co: usize) -> &[f32] {
        let spatial = self.out.0 * self.out.1;
        let (b, c) = self.stack.locate(co);
        &self.d_output[b][n * self.image_len[b] + c * spatial..][..spatial]
    }

    /// One `dW` task: columns `[j0, j0 + jn)` of every bank's weight
    /// gradient, whole batch, image order, with `slots` images per `NR`-lane
    /// block ([`image_slots`]). The wide tier's 16-lane register holds two
    /// such blocks: the next channels of the same images, or — when one
    /// block holds every channel — the same channels of the next `slots`
    /// images, interleaved with the first ones as `2 * slots` slots.
    ///
    /// `dW[co][r] += Σ_k dY_n[co][k] · x_n[tap r at position k]` for each
    /// `n` ascending, in KC blocks of spatial positions `k`: one chain per
    /// `(n, co, r)` and block from `+0.0`, added into `d_weights` (the
    /// caller's running gradient) image by image, block by block — a
    /// per-image `gemm(dY_n, im2col(x_n)ᵀ, beta = 1.0)` fold. The images a
    /// register holds are staged side by side and run on one tile, each
    /// image's chains on its own lanes, kept per k-block until they are
    /// added in that order. The task stages only the channels its taps
    /// read; the `dY` transpose is the part repeated across tasks.
    fn dw_cell(&self, slots: usize, j0: usize, jn: usize) {
        let (g, (out_h, out_w)) = (self.geom, self.out);
        let spatial = out_h * out_w;
        let khw = g.kernel_h * g.kernel_w;
        let (c_lo, c_hi) = (j0 / khw, (j0 + jn).div_ceil(khw));
        let chan_len = ((out_h - 1) * g.stride_h + g.kernel_h) * phase_len(g) * g.stride_w;
        // `slots > 1` only when one lane block holds every channel.
        let image_pairs = self.tier.wide() && self.stack.total * slots <= NR;
        let groups = if image_pairs { 2 } else { 1 };
        let lanes = if self.tier.wide() { 2 * NR } else { NR };
        let scratch_len = (spatial + spatial.div_ceil(KC) * DW_TAPS) * lanes;
        workspace::with_f32(Tag::ConvGrad, scratch_len, |scratch| {
            let stage_len = groups * slots * ((c_hi - c_lo) * chan_len + TW);
            workspace::with_f32(Tag::ConvPackB, stage_len, |stage| {
                with_wide_lanes(
                    self.tier,
                    #[inline(always)]
                    |tier| {
                        let cols = (j0, jn, c_lo);
                        const W: usize = 2 * NR;
                        match (tier.wide(), groups * slots) {
                            (false, 1) => self.dw_body::<NR, 1>(cols, scratch, stage),
                            (false, 2) => self.dw_body::<NR, 2>(cols, scratch, stage),
                            (false, _) => self.dw_body::<NR, 4>(cols, scratch, stage),
                            (true, 1) => self.dw_body::<W, 1>(cols, scratch, stage),
                            (true, 2) => self.dw_body::<W, 2>(cols, scratch, stage),
                            (true, 4) => self.dw_body::<W, 4>(cols, scratch, stage),
                            (true, _) => self.dw_body::<W, 8>(cols, scratch, stage),
                        }
                    },
                );
            });
        });
    }

    /// [`Backward::dw_cell`]'s body on `L`-lane registers holding `S`
    /// images.
    #[inline(always)]
    fn dw_body<const L: usize, const S: usize>(
        &self,
        (j0, jn, c_lo): (usize, usize, usize),
        scratch: &mut [f32],
        stage: &mut [f32],
    ) {
        let (g, (out_h, out_w), total) = (self.geom, self.out, self.stack.total);
        let (spatial, kdim) = (out_h * out_w, g.col_rows());
        let rows = (out_h - 1) * g.stride_h + g.kernel_h;
        let row_step = phase_len(g) * g.stride_w;
        let chan_len = rows * row_step;
        let lane_blocks = (total * S).div_ceil(L);
        // `dyt[k][lane]` over all positions, then one `[t][lane]` tile per
        // k-block.
        let (dyt, chains) = scratch.split_at_mut(spatial * L);
        // The last tile's taps past `jn` keep offset 0: a valid window,
        // computed and never stored.
        let mut offs = [0usize; NC + DW_TAPS];
        tap_offsets(g, j0, rows, &mut offs[..jn]);
        offs[..jn].iter_mut().for_each(|o| *o -= c_lo * chan_len);
        let first_chan = c_lo * g.in_h * g.in_w;
        for (n0, gn) in blocks(self.batch, S) {
            // A short last group repeats its last image.
            let images: [&[f32]; S] = std::array::from_fn(|s| {
                &self.input[(n0 + s.min(gn - 1)) * g.in_len() + first_chan..]
            });
            stage_image(g, images, 0, rows, 0.0, stage);
            for lb in 0..lane_blocks {
                // Lane `l` of block `lb` is stacked channel `co` of slot `s`:
                // `lb * L + l = co * S + s`. A lane past the channels or the
                // group reads a plane that is there: computed, never stored.
                let planes = std::array::from_fn(|l| {
                    let co = ((lb * L + l) / S).min(total - 1);
                    self.dy_plane(n0 + (l % S).min(gn - 1), co)
                });
                copy_row(dyt.as_chunks_mut::<L>().0, planes, 1);
                for (t0, taps) in blocks(jn, DW_TAPS) {
                    let offs = offs[t0..][..DW_TAPS].try_into().expect("taps");
                    let steps = (out_w, g.stride_h * row_step);
                    let tiles = chains.chunks_exact_mut(DW_TAPS * L);
                    for ((pc, kcb), tile) in blocks(spatial, KC).zip(tiles) {
                        let dyt = &dyt[pc * L..][..kcb * L];
                        let first = (pc / out_w, pc % out_w);
                        let acc = dw_tile::<L, S>(stage, offs, dyt, first, steps);
                        tile.copy_from_slice(acc.as_flattened());
                    }
                    // Image by image, then k-block by k-block.
                    for s in 0..gn {
                        for l in (s..L).step_by(S) {
                            let co = (lb * L + l) / S;
                            if co >= total {
                                break;
                            }
                            let (b, c) = self.stack.locate(co);
                            let at = c * kdim + j0 + t0;
                            let dw_row = self.d_weights[b].0.part(at, taps);
                            for tile in chains.chunks_exact(DW_TAPS * L) {
                                for (d, acc_t) in dw_row.iter_mut().zip(tile.chunks_exact(L)) {
                                    *d += acc_t[l];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// One db task: stacked channels `[i0, i0 + il)`;
    /// `db[c] += Σ_n (serial spatial sum of dY_n[c])` in image order.
    fn db_cell(&self, i0: usize, il: usize) {
        for ci in i0..i0 + il {
            let (b, c) = self.stack.locate(ci);
            let Some(db) = &self.d_weights[b].1 else {
                continue;
            };
            let dbv = &mut db.part(c, 1)[0];
            for n in 0..self.batch {
                let mut t = 0.0f32;
                for &v in self.dy_plane(n, ci) {
                    t += v;
                }
                *dbv += t;
            }
        }
    }

    /// One d_input task: images `[n0, n0 + gn)`, rows `[ih0, ih0 + ihn)`,
    /// input channels `[c0, c0 + cl)`, `S` images per tile ([`image_slots`]):
    /// tile row `r` is channel `r` of one image, or with `S > 1` channel
    /// `r % (MR / S)` of the group's image `r / (MR / S)`. Per bank, a `dX` tile from `+0.0` takes every tap in
    /// turn (see the module docs for the fold order); the bank tiles are
    /// summed in bank order and the sum added into `d_input`.
    fn dx_cell<const S: usize>(
        &self,
        (n0, gn): (usize, usize),
        (ih0, ihn): (usize, usize),
        (c0, cl): (usize, usize),
    ) {
        let (g, out_h, stack) = (self.geom, self.out.0, self.stack);
        let row_len = g.in_w + g.kernel_w - 1;
        // The dY rows some tap of some band row reads:
        // `oh * stride_h = ih + pad_h - kh`.
        let reach = (ih0 + g.pad_h).saturating_sub(g.kernel_h - 1);
        let oh_lo = reach.div_ceil(g.stride_h);
        let oh_hi = ((ih0 + ihn - 1 + g.pad_h) / g.stride_h + 1).min(out_h).max(oh_lo);
        let chan_len = (oh_hi - oh_lo) * row_len;
        let slot_len = stack.total * chan_len;
        // One image's channels `[c0, c0 + cl)` in `MR`-row panels, or the
        // `MR` rows of all `S` slots in one.
        let rows = if S == 1 { cl } else { MR };
        workspace::with_f32(Tag::ConvPackB, S * slot_len + TW, |stage| {
            with_wide_lanes(
                self.tier,
                #[inline(always)]
                |_| {
                    let (staged, slack) = stage.split_at_mut(S * slot_len);
                    slack.fill(0.0);
                    // With no dY row in reach nothing is staged: every tap
                    // row is skipped. A slot past a short group repeats its
                    // last image: computed, never stored.
                    if oh_lo < oh_hi {
                        for (s, slot) in staged.chunks_exact_mut(slot_len).enumerate() {
                            let n = n0 + s.min(gn - 1);
                            for (b, (&co0, &c_b)) in stack.start.iter().zip(&stack.len).enumerate()
                            {
                                if c_b == 0 {
                                    continue;
                                }
                                let dy = &self.d_output[b][n * self.image_len[b]..];
                                let dst = &mut slot[co0 * chan_len..][..c_b * chan_len];
                                stage_grad(g, dy, self.out, (oh_lo, oh_hi), dst);
                            }
                        }
                    }
                    let stage = &*stage;
                    let mut offs = [0usize; KC];
                    for (co, o) in offs.iter_mut().enumerate() {
                        *o = co * chan_len;
                    }
                    for ih in ih0..ih0 + ihn {
                        // Tap row `kh` reads dilated dY row `u0 - kh`, real when
                        // that is a multiple of stride_h: kh = kh_first,
                        // kh_first + stride_h, … read dY rows oh_top, oh_top - 1, …
                        let u0 = ih + g.pad_h;
                        let (oh_top, kh_first) = (u0 / g.stride_h, u0 % g.stride_h);
                        let tap_rows = (kh_first..g.kernel_h.min(u0 + 1)).step_by(g.stride_h);
                        for ip in 0..rows.div_ceil(MR) {
                            let panel = c0 / MR + ip;
                            for (iw0, cols) in blocks(g.in_w, TW) {
                                let mut sum = [[0.0f32; TW]; MR];
                                for (&co0, &c_b) in stack.start.iter().zip(&stack.len) {
                                    if c_b == 0 {
                                        continue;
                                    }
                                    let mut dx_tile = [[0.0f32; TW]; MR];
                                    for (oh, kh) in (0..=oh_top).rev().zip(tap_rows.clone()) {
                                        if oh >= out_h {
                                            continue;
                                        }
                                        for kw in 0..g.kernel_w {
                                            let base =
                                                (oh - oh_lo) * row_len + iw0 + g.kernel_w - 1 - kw
                                                    + co0 * chan_len;
                                            let slab =
                                                (kh * g.kernel_w + kw) * self.wt_panels + panel;
                                            let w_tap = &self.packed_wt
                                                [(slab * stack.total + co0) * MR..][..c_b * MR];
                                            let mut bases = [base; S];
                                            for (s, b) in bases.iter_mut().enumerate() {
                                                *b += s * slot_len;
                                            }
                                            let tap =
                                                tap_sum::<S>(w_tap, stage, bases, chan_len, &offs);
                                            add_tile(&mut dx_tile, &tap);
                                        }
                                    }
                                    add_tile(&mut sum, &dx_tile);
                                }
                                for (r, dx_row) in (ip * MR..rows).zip(&sum) {
                                    // No division by a run-time row count.
                                    let (s, c) =
                                        if S == 1 { (0, r) } else { (r / (MR / S), r % (MR / S)) };
                                    if s < gn && c < cl {
                                        let at = (n0 + s) * g.in_len()
                                            + ((c0 + c) * g.in_h + ih) * g.in_w
                                            + iw0;
                                        store_row(
                                            self.d_input.part(at, cols),
                                            &dx_row[..cols],
                                            false,
                                        );
                                    }
                                }
                            }
                        }
                    }
                },
            );
        });
    }
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
