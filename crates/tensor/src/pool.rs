//! Max and average 2-D pooling, forward and backward.
//!
//! Pooling shares the window geometry type with convolution
//! ([`crate::conv::Conv2dGeometry`] with `in_channels` interpreted as the
//! pooled channel count; pooling is applied per channel).
//!
//! A window is clipped to the image once — its row range per output row,
//! its column range per output column — so the tap loops run over plain
//! in-bounds sub-rows with no per-tap padding test. Taps are visited in
//! `(kh, kw)` order: max pooling keeps the first strictly-greater tap and
//! average pooling sums in that order.
//!
//! **Max forward** is register-tiled like the direct convolution: each
//! channel is staged once ([`crate::conv::stage_image`]) into a band whose
//! padding columns and slack hold `-inf`, rows are clipped per output row,
//! and every tap `(kh, kw)` of a tile of consecutive outputs is then one
//! contiguous window folded into a `best` / `idx` tile by a branch-free
//! select. `v > best` is false for `v = -inf` (and for NaN) whatever
//! `best` holds, so a padding tap is never selected: the winner, the
//! first-strictly-greater tie rule, and the [`NO_ARGMAX`] / `0.0` result of
//! a window with no selectable tap are those of the clipped per-window
//! scan (kept as the oracle in `tests/oracle/`), bit for bit.
//!
//! Both directions are batch-parallel: every image's output (or input
//! gradient) slice is disjoint, so images run as independent tasks on the
//! crate worker pool with results identical at any thread count.

use std::ops::Range;

use crate::conv::{phase_len, stage_image, Conv2dGeometry, TW};
use crate::parallel;
use crate::simd::with_wide_lanes;
use crate::workspace::{self, Tag};

/// Pooling operator variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window (records argmax indices for backward).
    Max,
    /// Arithmetic mean over the window.
    Average,
}

/// [`pool_forward`]'s argmax entry for a window with no selectable tap (it
/// lies wholly in padding, or holds only NaN / `-inf`): output 0, no
/// gradient.
pub const NO_ARGMAX: u32 = u32::MAX;

/// The in-bounds part of the window that starts at `o * stride - pad` and
/// spans `kernel` cells of an axis `extent` long; empty if the window lies
/// wholly in padding.
fn clip(o: usize, stride: usize, pad: usize, kernel: usize, extent: usize) -> Range<usize> {
    let start = o * stride;
    start.saturating_sub(pad).min(extent)..(start + kernel).saturating_sub(pad).min(extent)
}

/// Output extents plus the per-image lengths, validated once per call.
struct Extents {
    out_h: usize,
    out_w: usize,
    in_len: usize,
    out_len: usize,
}

impl Extents {
    fn of(geom: &Conv2dGeometry) -> Self {
        let out_h = geom.out_h().expect("invalid geometry");
        let out_w = geom.out_w().expect("invalid geometry");
        let in_len = geom.in_len();
        assert!(in_len <= NO_ARGMAX as usize, "image too large for u32 argmax offsets");
        Extents { out_h, out_w, in_len, out_len: geom.in_channels * out_h * out_w }
    }
}

/// Calls `f(out_idx, chan_base, rows, cols)` for every output element of one
/// image in `(c, oh, ow)` order, with the window's clipped input rows and
/// columns and the offset of channel `c` within the image.
#[inline(always)]
fn for_each_window(
    geom: &Conv2dGeometry,
    ext: &Extents,
    mut f: impl FnMut(usize, usize, Range<usize>, Range<usize>),
) {
    let mut out_idx = 0;
    for c in 0..geom.in_channels {
        let chan_base = c * geom.in_h * geom.in_w;
        for oh in 0..ext.out_h {
            let rows = clip(oh, geom.stride_h, geom.pad_h, geom.kernel_h, geom.in_h);
            for ow in 0..ext.out_w {
                let cols = clip(ow, geom.stride_w, geom.pad_w, geom.kernel_w, geom.in_w);
                f(out_idx, chan_base, rows.clone(), cols);
                out_idx += 1;
            }
        }
    }
}

/// Folds one tap of `W` consecutive outputs into the running maximum:
/// lane `j` holds input offset `first + ramp[j]` and takes over iff it is
/// strictly greater.
#[inline(always)]
fn max_tap<const W: usize>(
    taps: &[f32],
    first: u32,
    ramp: &[u32; W],
    best: &mut [f32; W],
    idx: &mut [u32; W],
) {
    let taps: &[f32; W] = taps.try_into().expect("W-wide window");
    for j in 0..W {
        let take = taps[j] > best[j];
        best[j] = if take { taps[j] } else { best[j] };
        idx[j] = if take { first.wrapping_add(ramp[j]) } else { idx[j] };
    }
}

/// Max-pools one image on `W`-wide register tiles (`W <= out_w`) over
/// `stage`, one channel's `-inf`-padded band at a time. See the module
/// docs. The loops are shaped for the auto-vectoriser: one flat tap loop
/// per tile and whole-tile stores only — the last tile of a row slides back
/// to end at `out_w`, recomputing a few outputs rather than storing a part
/// — because a nested `(kh, kw)` loop or a partial write-back compiled to
/// scalar selects.
#[inline(always)]
fn max_image<const W: usize>(
    geom: &Conv2dGeometry,
    ext: &Extents,
    image: &[f32],
    stage: &mut [f32],
    out_image: &mut [f32],
    argmax_image: &mut [u32],
) {
    let (sw, phase_len) = (geom.stride_w, phase_len(geom));
    let next_row = (geom.in_w as u32).wrapping_sub(geom.kernel_w as u32);
    let mut ramp = [0u32; W];
    for (j, r) in ramp.iter_mut().enumerate() {
        *r = (j * sw) as u32;
    }
    let mut out_rows = out_image.chunks_exact_mut(ext.out_w);
    let mut argmax_rows = argmax_image.chunks_exact_mut(ext.out_w);
    for (c, chan) in image.chunks_exact(geom.in_h * geom.in_w).enumerate() {
        stage_image(geom, chan, geom.pad_h, geom.in_h, f32::NEG_INFINITY, stage);
        for oh in 0..ext.out_h {
            let rows = clip(oh, geom.stride_h, geom.pad_h, geom.kernel_h, geom.in_h);
            let out_row = out_rows.next().expect("one row per (c, oh)");
            let argmax_row = argmax_rows.next().expect("one row per (c, oh)");
            for ow0 in (0..ext.out_w).step_by(W).map(|ow| ow.min(ext.out_w - W)) {
                let (mut best, mut idx) = ([f32::NEG_INFINITY; W], [NO_ARGMAX; W]);
                // Band offset of the row's phase 0, and the input offset of
                // tap `kw = 0` of output `ow0` (in the padding it wraps, on
                // a lane that is never selected).
                let mut row = rows.start * sw * phase_len + ow0;
                let mut first = ((c * geom.in_h + rows.start) * geom.in_w + ow0 * sw) as u32;
                first = first.wrapping_sub(geom.pad_w as u32);
                let (mut kw, mut phase, mut q) = (0, 0, 0);
                for _ in 0..rows.len() * geom.kernel_w {
                    let taps = &stage[row + phase * phase_len + q..][..W];
                    max_tap(taps, first, &ramp, &mut best, &mut idx);
                    (kw, first) = (kw + 1, first.wrapping_add(1));
                    (phase, q) = if phase + 1 == sw { (0, q + 1) } else { (phase + 1, q) };
                    if kw == geom.kernel_w {
                        (kw, phase, q, row) = (0, 0, 0, row + sw * phase_len);
                        first = first.wrapping_add(next_row);
                    }
                }
                *<&mut [f32; W]>::try_from(&mut out_row[ow0..][..W]).expect("whole tile") = best;
                *<&mut [u32; W]>::try_from(&mut argmax_row[ow0..][..W]).expect("whole tile") = idx;
            }
        }
    }
    // A window with no selectable tap still holds the `-inf` seed.
    for (out, &src) in out_image.iter_mut().zip(argmax_image.iter()) {
        *out = if src == NO_ARGMAX { 0.0 } else { *out };
    }
}

/// Pooling forward over a batch.
///
/// * `input`: `(N, C, H, W)`, `output`: `(N, C, H_out, W_out)`.
/// * `argmax`: for [`PoolKind::Max`], records the offset *within its image*
///   of each selected element, or [`NO_ARGMAX`] (same length as `output`);
///   pass an empty slice for average pooling.
///
/// # Panics
///
/// Panics on size mismatches or invalid geometry.
pub fn pool_forward(
    kind: PoolKind,
    geom: &Conv2dGeometry,
    batch: usize,
    input: &[f32],
    output: &mut [f32],
    argmax: &mut [u32],
) {
    let ext = Extents::of(geom);
    assert_eq!(input.len(), batch * ext.in_len, "input size mismatch");
    assert_eq!(output.len(), batch * ext.out_len, "output size mismatch");
    if output.is_empty() {
        return;
    }
    let image_of = |n: usize| &input[n * ext.in_len..(n + 1) * ext.in_len];
    match kind {
        PoolKind::Max => {
            assert_eq!(argmax.len(), output.len(), "argmax size mismatch");
            let band = phase_len(geom) * geom.stride_w * geom.in_h;
            parallel::par_chunks_mut2(
                output,
                ext.out_len,
                argmax,
                ext.out_len,
                |n, out_image, argmax_image| {
                    workspace::with_f32(Tag::ConvPackB, band + TW, |stage| {
                        with_wide_lanes(
                            #[inline(always)]
                            || {
                                // The widest tile the output row fills.
                                let (x, y, a) = (image_of(n), out_image, argmax_image);
                                match ext.out_w {
                                    TW.. => max_image::<TW>(geom, &ext, x, stage, y, a),
                                    8.. => max_image::<8>(geom, &ext, x, stage, y, a),
                                    4.. => max_image::<4>(geom, &ext, x, stage, y, a),
                                    2.. => max_image::<2>(geom, &ext, x, stage, y, a),
                                    _ => max_image::<1>(geom, &ext, x, stage, y, a),
                                }
                            },
                        );
                    });
                },
            );
        }
        PoolKind::Average => {
            parallel::par_chunks_mut(output, ext.out_len, |n, out_image| {
                let image = image_of(n);
                for_each_window(geom, &ext, |out_idx, chan_base, rows, cols| {
                    let count = rows.len() * cols.len();
                    let mut sum = 0.0;
                    for ih in rows {
                        let row_base = chan_base + ih * geom.in_w;
                        for &v in &image[row_base + cols.start..row_base + cols.end] {
                            sum += v;
                        }
                    }
                    out_image[out_idx] = if count > 0 { sum / count as f32 } else { 0.0 };
                });
            });
        }
    }
}

/// Pooling backward over a batch. `d_input` is overwritten.
///
/// # Panics
///
/// Panics on size mismatches or invalid geometry.
pub fn pool_backward(
    kind: PoolKind,
    geom: &Conv2dGeometry,
    batch: usize,
    d_output: &[f32],
    argmax: &[u32],
    d_input: &mut [f32],
) {
    let ext = Extents::of(geom);
    assert_eq!(d_output.len(), batch * ext.out_len, "d_output size mismatch");
    assert_eq!(d_input.len(), batch * ext.in_len, "d_input size mismatch");
    if kind == PoolKind::Max {
        assert_eq!(argmax.len(), d_output.len(), "argmax size mismatch");
    }
    if d_input.is_empty() {
        return;
    }
    // Every scatter target of image `n` lies inside its own input slice, so
    // images are independent tasks; each zeroes and fills its own gradient.
    parallel::par_chunks_mut(d_input, ext.in_len, |n, d_image| {
        d_image.fill(0.0);
        let image = n * ext.out_len..(n + 1) * ext.out_len;
        let d_out_image = &d_output[image.clone()];
        match kind {
            PoolKind::Max => {
                for (&src, &g) in argmax[image].iter().zip(d_out_image) {
                    if src != NO_ARGMAX {
                        d_image[src as usize] += g;
                    }
                }
            }
            PoolKind::Average => {
                for_each_window(geom, &ext, |out_idx, chan_base, rows, cols| {
                    let count = rows.len() * cols.len();
                    if count == 0 {
                        return;
                    }
                    // The gradient divides evenly over the valid cells.
                    let share = d_out_image[out_idx] / count as f32;
                    for ih in rows {
                        let row_base = chan_base + ih * geom.in_w;
                        for d in &mut d_image[row_base + cols.start..row_base + cols.end] {
                            *d += share;
                        }
                    }
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_2x2_stride2(hw: usize) -> Conv2dGeometry {
        Conv2dGeometry::square(1, hw, 2, 2, 0)
    }

    #[test]
    fn max_pool_forward_picks_maxima() {
        let g = geom_2x2_stride2(4);
        let input = vec![1., 2., 5., 6., 3., 4., 7., 8., 9., 10., 13., 14., 11., 12., 15., 16.];
        let mut output = vec![0.0; 4];
        let mut argmax = vec![0u32; 4];
        pool_forward(PoolKind::Max, &g, 1, &input, &mut output, &mut argmax);
        assert_eq!(output, vec![4., 8., 12., 16.]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let g = geom_2x2_stride2(4);
        let input: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let mut output = vec![0.0; 4];
        let mut argmax = vec![0u32; 4];
        pool_forward(PoolKind::Max, &g, 1, &input, &mut output, &mut argmax);
        let d_output = vec![1.0, 2.0, 3.0, 4.0];
        let mut d_input = vec![0.0; 16];
        pool_backward(PoolKind::Max, &g, 1, &d_output, &argmax, &mut d_input);
        assert_eq!(d_input.iter().sum::<f32>(), 10.0);
        // Maxima are at positions 5, 7, 13, 15 of the row-major input.
        assert_eq!(d_input[5], 1.0);
        assert_eq!(d_input[7], 2.0);
        assert_eq!(d_input[13], 3.0);
        assert_eq!(d_input[15], 4.0);
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let g = geom_2x2_stride2(2);
        let input = vec![1., 2., 3., 4.];
        let mut output = vec![0.0; 1];
        pool_forward(PoolKind::Average, &g, 1, &input, &mut output, &mut []);
        assert_eq!(output, vec![2.5]);
        let mut d_input = vec![0.0; 4];
        pool_backward(PoolKind::Average, &g, 1, &[4.0], &[], &mut d_input);
        assert_eq!(d_input, vec![1.0; 4]);
    }

    #[test]
    fn avg_pool_with_padding_divides_by_valid_count() {
        // 2x2 input, 2x2 kernel, stride 2, pad 1 -> 2x2 output; corner windows
        // see exactly one valid cell.
        let g = Conv2dGeometry::square(1, 2, 2, 2, 1);
        let input = vec![4.0, 8.0, 12.0, 16.0];
        let mut output = vec![0.0; 4];
        pool_forward(PoolKind::Average, &g, 1, &input, &mut output, &mut []);
        assert_eq!(output, vec![4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn multi_channel_batched_max_pool() {
        let g = Conv2dGeometry::square(2, 2, 2, 2, 0);
        // Two images, two channels each of 2x2.
        let input = vec![
            1., 2., 3., 4., // n0 c0
            5., 6., 7., 8., // n0 c1
            -1., -2., -3., -4., // n1 c0
            0., 0., 0., 9., // n1 c1
        ];
        let mut output = vec![0.0; 4];
        let mut argmax = vec![0u32; 4];
        pool_forward(PoolKind::Max, &g, 2, &input, &mut output, &mut argmax);
        assert_eq!(output, vec![4., 8., -1., 9.]);
    }

    #[test]
    fn max_pool_gradient_is_subgradient_of_forward() {
        // Finite-difference check on a non-tied input.
        let g = geom_2x2_stride2(4);
        let input: Vec<f32> = (0..16).map(|i| (i as f32 * 0.713).sin() * 3.0).collect();
        let d_output = vec![0.7, -0.3, 1.1, 0.4];
        let loss = |x: &[f32]| -> f32 {
            let mut out = vec![0.0; 4];
            let mut am = vec![0u32; 4];
            pool_forward(PoolKind::Max, &g, 1, x, &mut out, &mut am);
            out.iter().zip(d_output.iter()).map(|(a, b)| a * b).sum()
        };
        let mut out = vec![0.0; 4];
        let mut argmax = vec![0u32; 4];
        pool_forward(PoolKind::Max, &g, 1, &input, &mut out, &mut argmax);
        let mut d_input = vec![0.0; 16];
        pool_backward(PoolKind::Max, &g, 1, &d_output, &argmax, &mut d_input);

        let eps = 1e-3;
        let mut x = input.clone();
        for i in 0..16 {
            let orig = x[i];
            x[i] = orig + eps;
            let lp = loss(&x);
            x[i] = orig - eps;
            let lm = loss(&x);
            x[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((d_input[i] - numeric).abs() < 1e-2, "i={i}");
        }
    }
}
