//! Across-channel Local Response Normalisation, forward and backward.
//!
//! `y = x · s^-β` with `s = k + α/n · Σ x²` over a window of `n` adjacent
//! channels (Caffe's `LRNLayer`, `ACROSS_CHANNELS`).
//!
//! LRN does almost no arithmetic per byte, so the kernels are organised
//! around memory order rather than around the formula: they walk channels'
//! contiguous `spatial`-long rows (channel-outer, spatial-inner), which
//! vectorise, instead of gathering a channel-strided window per element.
//! Forward is one register-resident pass per [`STRIP`]-element strip of a
//! channel row, run through the wide-lane dispatch ([`crate::simd`]): the
//! window's sum of squares, then `k + α/n · s`, then `s^-β · x`, with one
//! store each of `scale` and the output. The window sum still folds
//! neighbours in ascending channel order per element, so `scale` is
//! bit-identical to the per-element formulation.
//!
//! `s^-β` is evaluated once per element. For β = 0.75 — Caffe's default —
//! it is `1 / (√s · √√s)`: three correctly-rounded IEEE operations, so the
//! result is the same on every platform, which libm's `powf` does not
//! promise. Any other β falls back to `powf`. Backward is Caffe's ratio
//! form `dx = dy·s^-β − (2αβ/n) · x · Σ_win(dy·x·s^-β / s)`: no further
//! power evaluations, whatever the window size. It runs strip by strip
//! too: the direct term and ratio of every channel of a strip, then each
//! channel's window of ratios, folded in ascending order from `+0.0`.
//!
//! Both directions are batch-parallel: windows never cross images, so each
//! image is an independent task with results identical at any thread count.

use std::ops::Range;

use crate::conv::TW;
use crate::gemm::blocks;
use crate::parallel;
use crate::simd::{with_wide_lanes, Tier};
use crate::workspace::{self, Tag};

/// Elements per strip: one 512-bit lane, two 256-bit ones.
const STRIP: usize = TW;

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

/// One forward strip: `scale` and `s^-β · x` over [`STRIP`] consecutive
/// positions of channel `centre`, the window's rows read through `load`.
/// `inv_pow` is `s ↦ s^-β`.
#[inline(always)]
fn forward_strip(
    (k, alpha_n): (f32, f32),
    window: Range<usize>,
    centre: usize,
    load: impl Fn(usize) -> [f32; STRIP],
    inv_pow: impl Fn(f32) -> f32,
) -> ([f32; STRIP], [f32; STRIP]) {
    let mut s = [0.0f32; STRIP];
    for w in window {
        let xv = load(w);
        for j in 0..STRIP {
            s[j] += xv[j] * xv[j];
        }
    }
    for sv in &mut s {
        *sv = k + alpha_n * *sv;
    }
    let p = s.map(inv_pow);
    let xc = load(centre);
    (s, std::array::from_fn(|j| p[j] * xc[j]))
}

/// LRN forward over one `(channels, spatial)` image, strip by strip; the
/// last strip of a row is zero-padded past its end and stored in part.
#[inline(always)]
fn forward_image(
    params: &LrnParams,
    spatial: usize,
    x: &[f32],
    out: &mut [f32],
    scale: &mut [f32],
    inv_pow: impl Fn(f32) -> f32 + Copy,
) {
    let channels = x.len() / spatial;
    let coef = (params.k, params.alpha_over_n());
    for c in 0..channels {
        let window = params.window(c, channels);
        for (j0, len) in blocks(spatial, STRIP) {
            let at = c * spatial + j0;
            if len == STRIP {
                let load = |w: usize| -> [f32; STRIP] {
                    *x[w * spatial + j0..][..STRIP].first_chunk().expect("a whole strip")
                };
                let (s, y) = forward_strip(coef, window.clone(), c, load, inv_pow);
                scale[at..][..STRIP].copy_from_slice(&s);
                out[at..][..STRIP].copy_from_slice(&y);
            } else {
                let load = |w: usize| {
                    let mut v = [0.0f32; STRIP];
                    v[..len].copy_from_slice(&x[w * spatial + j0..][..len]);
                    v
                };
                let (s, y) = forward_strip(coef, window.clone(), c, load, inv_pow);
                scale[at..][..len].copy_from_slice(&s[..len]);
                out[at..][..len].copy_from_slice(&y[..len]);
            }
        }
    }
}

/// One backward strip of [`STRIP`] positions, every channel read through
/// `load(buffer, c)` from `(x, scale, dy)`: first per channel the direct
/// term `d = s^-β · dy` and `ratio = d · x / s` into `direct` / `ratio`
/// (`[channels][STRIP]`), then per channel `d − coef · x · Σ_win ratio`,
/// the window folded in ascending channel order from `+0.0`, handed to
/// `store(c, ·)`.
#[inline(always)]
fn backward_strip(
    params: &LrnParams,
    load: impl Fn(&[f32], usize) -> [f32; STRIP],
    (x, s, dy): (&[f32], &[f32], &[f32]),
    (direct, ratio): (&mut [[f32; STRIP]], &mut [[f32; STRIP]]),
    inv_pow: impl Fn(f32) -> f32,
    mut store: impl FnMut(usize, [f32; STRIP]),
) {
    let coef = 2.0 * params.alpha_over_n() * params.beta;
    let channels = ratio.len();
    for (c, (d, r)) in direct.iter_mut().zip(ratio.iter_mut()).enumerate() {
        let (xv, sv, dv) = (load(x, c), load(s, c), load(dy, c));
        let p = sv.map(&inv_pow);
        *d = std::array::from_fn(|j| p[j] * dv[j]);
        *r = std::array::from_fn(|j| d[j] * xv[j] / sv[j]);
    }
    for (c, d) in direct.iter().enumerate() {
        let mut w = [0.0f32; STRIP];
        for row in &ratio[params.window(c, channels)] {
            for j in 0..STRIP {
                w[j] += row[j];
            }
        }
        let xv = load(x, c);
        store(c, std::array::from_fn(|j| d[j] - coef * xv[j] * w[j]));
    }
}

/// LRN backward over one image, strip by strip (`scratch` holds
/// `2 · channels · STRIP` floats); the last strip is zero-padded past the
/// row's end and stored in part.
#[inline(always)]
fn backward_image(
    params: &LrnParams,
    spatial: usize,
    bufs: (&[f32], &[f32], &[f32]),
    d_image: &mut [f32],
    scratch: &mut [f32],
    inv_pow: impl Fn(f32) -> f32 + Copy,
) {
    let channels = d_image.len() / spatial;
    let (direct, ratio) = scratch.as_chunks_mut::<STRIP>().0.split_at_mut(channels);
    for (j0, len) in blocks(spatial, STRIP) {
        if len == STRIP {
            let load = |buf: &[f32], c: usize| -> [f32; STRIP] {
                *buf[c * spatial + j0..][..STRIP].first_chunk().expect("a whole strip")
            };
            let store = |c: usize, v: [f32; STRIP]| {
                d_image[c * spatial + j0..][..STRIP].copy_from_slice(&v);
            };
            backward_strip(params, load, bufs, (&mut *direct, &mut *ratio), inv_pow, store);
        } else {
            let load = |buf: &[f32], c: usize| {
                let mut v = [0.0f32; STRIP];
                v[..len].copy_from_slice(&buf[c * spatial + j0..][..len]);
                v
            };
            let store = |c: usize, v: [f32; STRIP]| {
                d_image[c * spatial + j0..][..len].copy_from_slice(&v[..len]);
            };
            backward_strip(params, load, bufs, (&mut *direct, &mut *ratio), inv_pow, store);
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
    let tier = Tier::host();
    parallel::par_chunks_mut2(output, img_len, scale, img_len, |n, out_image, scale_image| {
        let x_image = &input[n * img_len..(n + 1) * img_len];
        with_wide_lanes(
            tier,
            #[inline(always)]
            |_| {
                let (x, y, s) = (x_image, out_image, scale_image);
                if params.beta == 0.75 {
                    forward_image(params, spatial, x, y, s, inv_pow_three_quarters);
                } else {
                    forward_image(params, spatial, x, y, s, |sv| sv.powf(-params.beta));
                }
            },
        );
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
    let tier = Tier::host();
    parallel::par_chunks_mut(d_input, img_len, |n, d_image| {
        let image = n * img_len..(n + 1) * img_len;
        let bufs = (&input[image.clone()], &scale[image.clone()], &d_output[image]);
        workspace::with_f32(Tag::LrnRatio, 2 * channels * STRIP, |scratch| {
            with_wide_lanes(
                tier,
                #[inline(always)]
                |_| {
                    if params.beta == 0.75 {
                        backward_image(
                            params,
                            spatial,
                            bufs,
                            d_image,
                            scratch,
                            inv_pow_three_quarters,
                        );
                    } else {
                        let inv_pow = |sv: f32| sv.powf(-params.beta);
                        backward_image(params, spatial, bufs, d_image, scratch, inv_pow);
                    }
                },
            );
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
