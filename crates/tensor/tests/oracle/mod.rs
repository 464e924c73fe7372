//! Test oracles for the convolution and max-pooling kernels: the
//! materialised im2col/col2im formulation and the per-window max scan the
//! library used to ship, kept here — out of the crate — as the
//! specifications `tests/fused_conv.rs` and `tests/pool_oracle.rs` compare
//! the register-tiled kernels against bit for bit, and whose adjoint
//! property `tests/proptests.rs` checks.
//!
//! Shared by several test crates (`mod oracle;`), each using a subset.
#![allow(dead_code)]

use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::pool::NO_ARGMAX;

/// Unrolls one image `(C, H, W)` into the materialised column matrix.
///
/// The library never materialises this matrix; it is the reference
/// formulation (see [`conv2d_forward_ref`]) and the subject of the
/// adjoint tests.
/// `col` must have `geom.col_rows() * geom.col_cols()` elements.
///
/// # Panics
///
/// Panics if buffer sizes do not match the geometry.
pub fn im2col(geom: &Conv2dGeometry, image: &[f32], col: &mut [f32]) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    assert_eq!(image.len(), geom.in_len(), "image buffer size mismatch");
    assert_eq!(col.len(), geom.col_rows() * out_h * out_w, "col buffer size mismatch");

    let mut col_idx = 0;
    for c in 0..geom.in_channels {
        let chan = &image[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                for oh in 0..out_h {
                    let ih = (oh * geom.stride_h + kh) as isize - geom.pad_h as isize;
                    for ow in 0..out_w {
                        let iw = (ow * geom.stride_w + kw) as isize - geom.pad_w as isize;
                        col[col_idx] = if ih >= 0
                            && iw >= 0
                            && (ih as usize) < geom.in_h
                            && (iw as usize) < geom.in_w
                        {
                            chan[ih as usize * geom.in_w + iw as usize]
                        } else {
                            0.0
                        };
                        col_idx += 1;
                    }
                }
            }
        }
    }
}

/// Accumulates a column matrix back into an image (adjoint of [`im2col`]).
///
/// The image buffer is *not* cleared; contributions are added, which is what
/// the backward pass needs when accumulating input gradients.
///
/// # Panics
///
/// Panics if buffer sizes do not match the geometry.
pub fn col2im(geom: &Conv2dGeometry, col: &[f32], image: &mut [f32]) {
    assert_eq!(image.len(), geom.in_len(), "image buffer size mismatch");
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    assert_eq!(col.len(), geom.col_rows() * out_h * out_w, "col buffer size mismatch");
    let mut col_idx = 0;
    for c in 0..geom.in_channels {
        let base = c * geom.in_h * geom.in_w;
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                for oh in 0..out_h {
                    let ih = (oh * geom.stride_h + kh) as isize - geom.pad_h as isize;
                    for ow in 0..out_w {
                        let iw = (ow * geom.stride_w + kw) as isize - geom.pad_w as isize;
                        if ih >= 0
                            && iw >= 0
                            && (ih as usize) < geom.in_h
                            && (iw as usize) < geom.in_w
                        {
                            image[base + ih as usize * geom.in_w + iw as usize] += col[col_idx];
                        }
                        col_idx += 1;
                    }
                }
            }
        }
    }
}

/// Reference convolution forward: materialised [`im2col`] + the crate's
/// `gemm`, one image at a time. The bit-identity oracle for the direct
/// kernel. `col_buf` must hold `col_rows * col_cols` elements.
///
/// # Panics
///
/// Panics on buffer size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_ref(
    geom: &Conv2dGeometry,
    batch: usize,
    out_channels: usize,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    output: &mut [f32],
    col_buf: &mut [f32],
) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    let spatial = out_h * out_w;
    let in_len = geom.in_len();
    let out_len = out_channels * spatial;
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    assert_eq!(output.len(), batch * out_len, "output size mismatch");
    assert_eq!(weights.len(), out_channels * geom.col_rows(), "weight size mismatch");
    assert!(bias.is_empty() || bias.len() == out_channels, "bias size mismatch");
    assert_eq!(col_buf.len(), geom.col_rows() * spatial, "col buffer size mismatch");

    for (image, out_image) in input.chunks(in_len).zip(output.chunks_mut(out_len)) {
        im2col(geom, image, col_buf);
        // (C_out x K) * (K x spatial) = C_out x spatial
        gemm(
            Transpose::No,
            Transpose::No,
            out_channels,
            spatial,
            geom.col_rows(),
            1.0,
            weights,
            col_buf,
            0.0,
            out_image,
        );
        if !bias.is_empty() {
            for (c, &b) in bias.iter().enumerate() {
                for v in &mut out_image[c * spatial..(c + 1) * spatial] {
                    *v += b;
                }
            }
        }
    }
}

/// Reference convolution backward: materialised im2col, per-image gemms
/// accumulated directly (`beta = 1`) in image order, `d_input` through
/// `Wᵀ · dY` and [`col2im`]. The bit-identity oracle for `conv2d_backward`.
///
/// # Panics
///
/// Panics on buffer size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_ref(
    geom: &Conv2dGeometry,
    batch: usize,
    out_channels: usize,
    input: &[f32],
    weights: &[f32],
    d_output: &[f32],
    d_weights: &mut [f32],
    d_bias: &mut [f32],
    d_input: &mut [f32],
    col_buf: &mut [f32],
) {
    let spatial = geom.col_cols().expect("invalid geometry");
    let in_len = geom.in_len();
    let out_len = out_channels * spatial;
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    assert_eq!(d_output.len(), batch * out_len, "d_output size mismatch");
    assert_eq!(d_weights.len(), out_channels * geom.col_rows(), "d_weights size mismatch");
    assert!(d_bias.is_empty() || d_bias.len() == out_channels, "d_bias size mismatch");
    assert!(d_input.is_empty() || d_input.len() == batch * in_len, "d_input size mismatch");
    assert_eq!(col_buf.len(), geom.col_rows() * spatial, "col buffer size mismatch");

    if !d_input.is_empty() {
        d_input.iter_mut().for_each(|v| *v = 0.0);
    }
    for n in 0..batch {
        let image = &input[n * in_len..(n + 1) * in_len];
        let d_out_image = &d_output[n * out_len..(n + 1) * out_len];

        // dW += dY_n * col_n^T : (C_out x spatial) * (spatial x K)
        im2col(geom, image, col_buf);
        gemm(
            Transpose::No,
            Transpose::Yes,
            out_channels,
            geom.col_rows(),
            spatial,
            1.0,
            d_out_image,
            col_buf,
            1.0,
            d_weights,
        );
        for (c, db) in d_bias.iter_mut().enumerate() {
            *db += d_out_image[c * spatial..(c + 1) * spatial].iter().sum::<f32>();
        }
        if !d_input.is_empty() {
            // d_col = W^T * dY : (K x C_out) * (C_out x spatial)
            gemm(
                Transpose::Yes,
                Transpose::No,
                geom.col_rows(),
                spatial,
                out_channels,
                1.0,
                weights,
                d_out_image,
                0.0,
                col_buf,
            );
            col2im(geom, col_buf, &mut d_input[n * in_len..(n + 1) * in_len]);
        }
    }
}

/// Reference max pooling: every window clipped to the image and scanned tap
/// by tap in `(kh, kw)` order, the first strictly-greater tap winning from
/// a `-inf` seed — so NaN and `-inf` taps are never selected, and a window
/// with no selectable tap (wholly in padding, or holding only such values)
/// yields `0.0` / [`NO_ARGMAX`]. `argmax` holds offsets within the image.
/// The bit-identity oracle for `pool_forward(PoolKind::Max, ..)`.
///
/// # Panics
///
/// Panics on buffer size mismatches.
pub fn max_pool_ref(
    geom: &Conv2dGeometry,
    batch: usize,
    input: &[f32],
    output: &mut [f32],
    argmax: &mut [u32],
) {
    let out_h = geom.out_h().expect("invalid geometry");
    let out_w = geom.out_w().expect("invalid geometry");
    let in_len = geom.in_len();
    assert_eq!(input.len(), batch * in_len, "input size mismatch");
    assert_eq!(output.len(), batch * geom.in_channels * out_h * out_w, "output size mismatch");
    assert_eq!(argmax.len(), output.len(), "argmax size mismatch");
    let clip = |o: usize, stride: usize, pad: usize, kernel: usize, extent: usize| {
        let start = o * stride;
        start.saturating_sub(pad).min(extent)..(start + kernel).saturating_sub(pad).min(extent)
    };
    let mut out_idx = 0;
    for image in input.chunks(in_len.max(1)).take(batch) {
        for c in 0..geom.in_channels {
            for oh in 0..out_h {
                let rows = clip(oh, geom.stride_h, geom.pad_h, geom.kernel_h, geom.in_h);
                for ow in 0..out_w {
                    let cols = clip(ow, geom.stride_w, geom.pad_w, geom.kernel_w, geom.in_w);
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = NO_ARGMAX;
                    for ih in rows.clone() {
                        for iw in cols.clone() {
                            let idx = (c * geom.in_h + ih) * geom.in_w + iw;
                            if image[idx] > best {
                                best = image[idx];
                                best_idx = idx as u32;
                            }
                        }
                    }
                    output[out_idx] = if best_idx == NO_ARGMAX { 0.0 } else { best };
                    argmax[out_idx] = best_idx;
                    out_idx += 1;
                }
            }
        }
    }
}
