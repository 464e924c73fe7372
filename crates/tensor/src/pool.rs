//! 2-D max pooling, forward and backward: the one pooling operator every
//! network here runs.
//!
//! Pooling shares the window geometry type with convolution
//! ([`crate::conv::Conv2dGeometry`] with `in_channels` interpreted as the
//! pooled channel count; pooling is applied per channel).
//!
//! A window is clipped to the image once — its row range per output row,
//! its column range per output column — so the tap loops run over plain
//! in-bounds sub-rows with no per-tap padding test. Taps are visited in
//! `(kh, kw)` order and the first strictly-greater tap wins.
//!
//! **Forward** is register-tiled like the direct convolution: each
//! channel is staged once (`crate::conv::stage_image`) into a band whose
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
use crate::simd::{with_wide_lanes, Tier};
use crate::workspace::{self, Tag};

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
        stage_image(geom, [chan], geom.pad_h, geom.in_h, f32::NEG_INFINITY, stage);
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

/// Max pooling forward over a batch.
///
/// * `input`: `(N, C, H, W)`, `output`: `(N, C, H_out, W_out)`.
/// * `argmax`: records the offset *within its image* of each selected
///   element, or [`NO_ARGMAX`] (same length as `output`).
///
/// # Panics
///
/// Panics on size mismatches or invalid geometry.
pub fn pool_forward(
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
    assert_eq!(argmax.len(), output.len(), "argmax size mismatch");
    let image_of = |n: usize| &input[n * ext.in_len..(n + 1) * ext.in_len];
    let band = phase_len(geom) * geom.stride_w * geom.in_h;
    let tier = Tier::host();
    let images = output.chunks_mut(ext.out_len).zip(argmax.chunks_mut(ext.out_len)).enumerate();
    parallel::for_each(images, |(n, (out_image, argmax_image))| {
        workspace::with_f32(Tag::ConvPackB, band + TW, |stage| {
            with_wide_lanes(
                tier,
                #[inline(always)]
                |_| {
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
    });
}

/// Max pooling backward over a batch: each output gradient goes to the
/// input its window selected (`argmax`, from [`pool_forward`]). `d_input` is
/// overwritten.
///
/// # Panics
///
/// Panics on size mismatches or invalid geometry.
pub fn pool_backward(
    geom: &Conv2dGeometry,
    batch: usize,
    d_output: &[f32],
    argmax: &[u32],
    d_input: &mut [f32],
) {
    let ext = Extents::of(geom);
    assert_eq!(d_output.len(), batch * ext.out_len, "d_output size mismatch");
    assert_eq!(d_input.len(), batch * ext.in_len, "d_input size mismatch");
    assert_eq!(argmax.len(), d_output.len(), "argmax size mismatch");
    if d_input.is_empty() {
        return;
    }
    // Every scatter target of image `n` lies inside its own input slice, so
    // images are independent tasks; each zeroes and fills its own gradient.
    parallel::for_each(d_input.chunks_mut(ext.in_len).enumerate(), |(n, d_image)| {
        d_image.fill(0.0);
        let image = n * ext.out_len..(n + 1) * ext.out_len;
        for (&src, &g) in argmax[image.clone()].iter().zip(&d_output[image]) {
            if src != NO_ARGMAX {
                d_image[src as usize] += g;
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
        pool_forward(&g, 1, &input, &mut output, &mut argmax);
        assert_eq!(output, vec![4., 8., 12., 16.]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let g = geom_2x2_stride2(4);
        let input: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let mut output = vec![0.0; 4];
        let mut argmax = vec![0u32; 4];
        pool_forward(&g, 1, &input, &mut output, &mut argmax);
        let d_output = vec![1.0, 2.0, 3.0, 4.0];
        let mut d_input = vec![0.0; 16];
        pool_backward(&g, 1, &d_output, &argmax, &mut d_input);
        assert_eq!(d_input.iter().sum::<f32>(), 10.0);
        // Maxima are at positions 5, 7, 13, 15 of the row-major input.
        assert_eq!(d_input[5], 1.0);
        assert_eq!(d_input[7], 2.0);
        assert_eq!(d_input[13], 3.0);
        assert_eq!(d_input[15], 4.0);
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
        pool_forward(&g, 2, &input, &mut output, &mut argmax);
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
            pool_forward(&g, 1, x, &mut out, &mut am);
            out.iter().zip(d_output.iter()).map(|(a, b)| a * b).sum()
        };
        let mut out = vec![0.0; 4];
        let mut argmax = vec![0u32; 4];
        pool_forward(&g, 1, &input, &mut out, &mut argmax);
        let mut d_input = vec![0.0; 16];
        pool_backward(&g, 1, &d_output, &argmax, &mut d_input);

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
