//! Across-channel Local Response Normalisation, forward and backward.
//!
//! `y = x · s^-β` with `s = k + α/n · Σ x²` over a window of `n` adjacent
//! channels (Caffe's `LRNLayer`, `ACROSS_CHANNELS`).
//!
//! LRN does almost no arithmetic per byte, so the kernels are organised
//! around memory order rather than around the formula: every pass walks one
//! channel's contiguous `spatial`-long row (channel-outer, spatial-inner),
//! which the compiler vectorises, instead of gathering a channel-strided
//! window per element. The window sum still folds neighbours in ascending
//! channel order per element, so `scale` is bit-identical to the
//! per-element formulation.
//!
//! `s^-β` is evaluated once per element. For β = 0.75 — Caffe's default —
//! it is `1 / (√s · √√s)`: three correctly-rounded IEEE operations, so the
//! result is the same on every platform, which libm's `powf` does not
//! promise. Any other β falls back to `powf`. Backward is Caffe's ratio
//! form `dx = dy·s^-β − (2αβ/n) · x · Σ_win(dy·x·s^-β / s)`: no further
//! power evaluations, whatever the window size.
//!
//! Both directions are batch-parallel: windows never cross images, so each
//! image is an independent task with results identical at any thread count.

use std::ops::Range;

use crate::parallel;
use crate::workspace::{self, Tag};

/// Parameters of an across-channel LRN window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrnParams {
    /// Window width in channels (odd, so it centres on a channel).
    pub size: usize,
    /// `α`: scales the window's sum of squares (divided by `size`).
    pub alpha: f32,
    /// `β`: the normalisation exponent.
    pub beta: f32,
    /// `k`: the additive bias inside the power.
    pub k: f32,
}

impl LrnParams {
    /// Channels of the window centred on channel `c`.
    fn window(&self, c: usize, channels: usize) -> Range<usize> {
        let half = self.size / 2;
        c.saturating_sub(half)..(c + half + 1).min(channels)
    }

    fn alpha_over_n(&self) -> f32 {
        self.alpha / self.size as f32
    }
}

/// `s^-0.75` as `1 / (√s · √√s)`.
#[inline(always)]
fn inv_pow_three_quarters(s: f32) -> f32 {
    let root = s.sqrt();
    1.0 / (root * root.sqrt())
}

/// `out[i] = f(s[i]) * x[i]` over one row, monomorphised per `f` so the
/// loop vectorises.
#[inline(always)]
fn scaled_row(out: &mut [f32], s: &[f32], x: &[f32], f: impl Fn(f32) -> f32) {
    for ((o, &sv), &xv) in out.iter_mut().zip(s).zip(x) {
        *o = f(sv) * xv;
    }
}

/// `out = s^-β · x` over one row.
fn inv_pow_times(beta: f32, out: &mut [f32], s: &[f32], x: &[f32]) {
    if beta == 0.75 {
        scaled_row(out, s, x, inv_pow_three_quarters);
    } else {
        scaled_row(out, s, x, |sv| sv.powf(-beta));
    }
}

/// `acc += f(rows[w])` element-wise for each row `w` of `window`, ascending.
fn add_rows(acc: &mut [f32], rows: &[f32], window: Range<usize>, f: impl Fn(f32) -> f32) {
    let spatial = acc.len();
    for row in rows[window.start * spatial..window.end * spatial].chunks_exact(spatial) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += f(v);
        }
    }
}

fn check_lens(batch: usize, channels: usize, spatial: usize, lens: &[usize]) {
    for &len in lens {
        assert_eq!(len, batch * channels * spatial, "LRN buffer size mismatch");
    }
}

/// LRN forward over a batch of `(channels, spatial)` images.
///
/// Writes `output = input · scale^-β` and the `scale` term itself (needed
/// by [`lrn_backward`]); both are fully overwritten.
///
/// # Panics
///
/// Panics if a buffer is not `batch * channels * spatial` long.
pub fn lrn_forward(
    params: &LrnParams,
    batch: usize,
    channels: usize,
    spatial: usize,
    input: &[f32],
    output: &mut [f32],
    scale: &mut [f32],
) {
    check_lens(batch, channels, spatial, &[input.len(), output.len(), scale.len()]);
    let img_len = channels * spatial;
    if batch * img_len == 0 {
        return;
    }
    let alpha_n = params.alpha_over_n();
    parallel::par_chunks_mut2(output, img_len, scale, img_len, |n, out_image, scale_image| {
        let x_image = &input[n * img_len..(n + 1) * img_len];
        for c in 0..channels {
            let row = c * spatial..(c + 1) * spatial;
            let scale_row = &mut scale_image[row.clone()];
            scale_row.fill(0.0);
            add_rows(scale_row, x_image, params.window(c, channels), |v| v * v);
            for s in scale_row.iter_mut() {
                *s = params.k + alpha_n * *s;
            }
            inv_pow_times(params.beta, &mut out_image[row.clone()], scale_row, &x_image[row]);
        }
    });
}

/// LRN backward over a batch. `input` and `scale` are the forward pass's
/// input and scale map; `d_input` is overwritten.
///
/// # Panics
///
/// Panics if a buffer is not `batch * channels * spatial` long.
#[allow(clippy::too_many_arguments)]
pub fn lrn_backward(
    params: &LrnParams,
    batch: usize,
    channels: usize,
    spatial: usize,
    input: &[f32],
    scale: &[f32],
    d_output: &[f32],
    d_input: &mut [f32],
) {
    check_lens(
        batch,
        channels,
        spatial,
        &[input.len(), scale.len(), d_output.len(), d_input.len()],
    );
    let img_len = channels * spatial;
    if batch * img_len == 0 {
        return;
    }
    let coef = 2.0 * params.alpha_over_n() * params.beta;
    parallel::par_chunks_mut(d_input, img_len, |n, d_image| {
        let image = n * img_len..(n + 1) * img_len;
        let (x, s, dy) = (&input[image.clone()], &scale[image.clone()], &d_output[image]);
        workspace::with_f32(Tag::LrnRatio, img_len + spatial, |scratch| {
            let (ratio, window_sum) = scratch.split_at_mut(img_len);
            // d = dy·s^-β (the direct term); ratio = d·x / s.
            inv_pow_times(params.beta, d_image, s, dy);
            for (((r, &d), &xv), &sv) in ratio.iter_mut().zip(d_image.iter()).zip(x).zip(s) {
                *r = d * xv / sv;
            }
            for c in 0..channels {
                let row = c * spatial..(c + 1) * spatial;
                window_sum.fill(0.0);
                add_rows(window_sum, ratio, params.window(c, channels), |v| v);
                for ((d, &xv), &w) in d_image[row.clone()].iter_mut().zip(&x[row]).zip(&*window_sum)
                {
                    *d -= coef * xv * w;
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_chain_tracks_powf() {
        let mut worst = 0.0f32;
        for i in 0..20_000 {
            let s = 0.5 + i as f32 * 0.01;
            let exact = f64::from(s).powf(-0.75) as f32;
            worst = worst.max(((inv_pow_three_quarters(s) - exact) / exact).abs());
        }
        assert!(worst < 2.5e-7, "max relative deviation {worst}");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let params = LrnParams { size: 5, alpha: 1e-4, beta: 0.75, k: 1.0 };
        lrn_forward(&params, 0, 4, 9, &[], &mut [], &mut []);
        lrn_backward(&params, 0, 4, 9, &[], &[], &[], &mut []);
    }
}
