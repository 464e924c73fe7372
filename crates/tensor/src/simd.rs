//! The crate's one wide-lane dispatch: safe kernel bodies recompiled for
//! the widest vector tier the CPU has — AVX-512F, AVX2 or the baseline
//! (SSE2) compilation.
//!
//! Every register-tiled kernel — the gemm micro-kernel, the direct
//! convolution's forward / `d_input` / `dW` task bodies, the max-pool row
//! tile, the LRN strips — is written once as plain safe Rust over
//! fixed-size arrays and handed to [`with_wide_lanes`], which is the only
//! `target_feature` call shim (and the only SIMD `unsafe` site) in the
//! workspace. Recompiling a body changes the instructions, never the
//! sequence of IEEE operations: Rust never contracts `a * b + c` into an
//! FMA, so every tier is bit-identical to the baseline.
//!
//! **The tile rule.** The AVX2 and baseline tiers run the 8-lane tile
//! shapes; the AVX-512F tier runs 16-lane shapes only where an 8-lane
//! shape would leave a 512-bit register half empty (the gemm micro-tile's
//! columns, the `dW` lane block), and only shapes that keep every output's
//! operation order. A body asks
//! [`Tier::wide`] which shape to run; inside each shim that is a constant,
//! so each tier compiles one shape. A kernel reads [`Tier::host`] once per
//! call and passes the value to every task, so a layout chosen outside the
//! shim (a packed panel width) and the shape inside agree on every thread.

/// A vector tier the running CPU supports. Only this module constructs one
/// (from runtime detection), which is what makes the dispatch sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tier(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Baseline,
    Avx2,
    Avx512f,
}

impl Tier {
    /// The widest tier this CPU runs: std's once-per-process cached probe.
    /// Always the baseline under Miri, which does not model
    /// `target_feature` recompilation (scripts/miri.sh).
    pub(crate) fn host() -> Tier {
        #[cfg(test)]
        if let Some(tier) = FORCED.get() {
            return tier;
        }
        Tier(detect())
    }

    /// Whether bodies run the 16-lane tile shapes (see the module docs).
    #[inline(always)]
    pub(crate) fn wide(self) -> bool {
        self.0 == Isa::Avx512f
    }

    /// The tier's name: `"avx512f"`, `"avx2"` or `"baseline"`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512f => "avx512f",
        }
    }
}

fn detect() -> Isa {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512f;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    Isa::Baseline
}

/// The wide-lane tier kernels dispatch to on this host: `"avx512f"`,
/// `"avx2"` or `"baseline"`.
pub fn wide_lanes() -> &'static str {
    Tier::host().name()
}

/// Runs `body(tier)` compiled for `tier`: a 16-float tile row is one
/// 512-bit lane under AVX-512F, two 256-bit lanes under AVX2, four 128-bit
/// lanes on the baseline. Callers pass an `#[inline(always)]` closure whose
/// hot loops are named `#[inline(always)]` functions, so all of it is
/// inlined into — and recompiled inside — the `target_feature` function,
/// where `tier` is a constant and the shape the body does not run is
/// dead code.
#[inline(always)]
pub(crate) fn with_wide_lanes<R>(tier: Tier, body: impl FnOnce(Tier) -> R) -> R {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        #[target_feature(enable = "avx512f")]
        #[allow(unsafe_code)]
        unsafe fn avx512f<R>(body: impl FnOnce(Tier) -> R) -> R {
            body(Tier(Isa::Avx512f))
        }
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        unsafe fn avx2<R>(body: impl FnOnce(Tier) -> R) -> R {
            body(Tier(Isa::Avx2))
        }
        // SAFETY: a `Tier` is only made by `detect`, which found the
        // feature on this CPU (or by the test override, which allows only
        // tiers `detect` reaches).
        #[allow(unsafe_code)]
        match tier.0 {
            Isa::Avx512f => return unsafe { avx512f(body) },
            Isa::Avx2 => return unsafe { avx2(body) },
            Isa::Baseline => {}
        }
    }
    body(Tier(Isa::Baseline))
}

#[cfg(test)]
std::thread_local! {
    static FORCED: std::cell::Cell<Option<Tier>> = const { std::cell::Cell::new(None) };
}

/// Every tier this CPU runs, narrowest first.
#[cfg(test)]
pub(crate) fn host_tiers() -> Vec<Tier> {
    let all = [Isa::Baseline, Isa::Avx2, Isa::Avx512f];
    all.into_iter().take_while(|&isa| isa <= detect()).map(Tier).collect()
}

/// Runs `f` with [`Tier::host`] answering `tier` on this thread. Test-only:
/// the tier is never a runtime option. Kernels read the tier once per call
/// on the calling thread, so this covers their pool tasks too.
#[cfg(test)]
pub(crate) fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    let previous = FORCED.replace(Some(tier));
    let result = f();
    FORCED.set(previous);
    result
}

#[cfg(test)]
mod tests {
    //! Tier parity: every register-tiled kernel returns the same bits under
    //! every tier this host runs. The goldens only see the widest tier.

    use super::*;
    use crate::conv::{
        conv2d_backward_banks, conv2d_forward_banks, Bank, BankGrad, Conv2dGeometry,
    };
    use crate::gemm::{gemm, Transpose};
    use crate::lrn::{lrn_backward, lrn_forward, LrnParams};
    use crate::pool::pool_forward;

    fn values(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 16) as f32 / 65536.0) - 0.5
            })
            .collect()
    }

    /// Runs `kernel` under every tier the host has and asserts that each
    /// returns the baseline's bits.
    fn assert_tier_parity(what: &str, kernel: impl Fn() -> Vec<f32>) {
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let tiers = host_tiers();
        let baseline = bits(with_tier(tiers[0], &kernel));
        for &tier in &tiers[1..] {
            assert!(bits(with_tier(tier, &kernel)) == baseline, "{what}: {} differs", tier.name());
        }
    }

    #[test]
    fn tiers_nest_and_the_host_runs_the_widest() {
        let tiers = host_tiers();
        assert_eq!(tiers[0].name(), "baseline");
        assert_eq!(Tier::host(), *tiers.last().expect("the baseline"));
        assert!(tiers.iter().all(|&t| with_tier(t, Tier::host) == t));
    }

    #[test]
    fn gemm_is_bit_identical_on_every_tier() {
        use Transpose::{No, Yes};
        for (m, n, k) in
            [(7, 5, 9), (13, 37, 300), (5, 9, 40), (6, 600, 20), (3, 600, 20), (16, 4, 70)]
        {
            let (a, b) = (values(m * k, 1), values(k * n, 2));
            for (ta, tb, beta) in [(No, No, 0.0), (No, Yes, 0.5), (Yes, No, 1.0), (Yes, Yes, 0.0)] {
                assert_tier_parity(&format!("gemm {m}x{n}x{k} {ta:?}/{tb:?}"), || {
                    let mut c = values(m * n, 3);
                    gemm(ta, tb, m, n, k, 0.75, &a, &b, beta, &mut c);
                    c
                });
            }
        }
    }

    /// Forward, then backward with `d_input`, of banks of `c_out[b]` filters:
    /// outputs, weight and bias gradients and the input gradient in one
    /// vector. Gradients start from non-zero values, so accumulation is
    /// covered too.
    fn conv_banks<const B: usize>(g: &Conv2dGeometry, batch: usize, c_out: [usize; B]) -> Vec<f32> {
        let (spatial, kdim) = (g.col_cols().expect("valid geometry"), g.col_rows());
        let input = values(batch * g.in_len(), 4);
        let weights = c_out.map(|c| values(c * kdim, 5 + c as u32));
        let bias = c_out.map(|c| values(c, 6));
        let mut outputs = c_out.map(|c| vec![0.0f32; batch * c * spatial]);
        let banks: Vec<Bank<'_>> = (weights.iter().zip(&bias).zip(&mut outputs).zip(c_out))
            .map(|(((w, b), out), c)| Bank {
                weights: w,
                bias: b,
                output: out,
                image_len: c * spatial,
            })
            .collect();
        conv2d_forward_banks::<B>(g, batch, &input, banks.try_into().expect("B banks"));

        let d_outputs = c_out.map(|c| values(batch * c * spatial, 7 + c as u32));
        let mut d_weights = c_out.map(|c| values(c * kdim, 8));
        let mut d_bias = c_out.map(|c| values(c, 9));
        let mut d_input = values(batch * g.in_len(), 10);
        let grads: Vec<BankGrad<'_>> = (weights.iter().zip(&d_outputs))
            .zip(d_weights.iter_mut().zip(&mut d_bias))
            .zip(c_out)
            .map(|(((w, dy), (dw, db)), c)| BankGrad {
                weights: w,
                d_output: dy,
                image_len: c * spatial,
                d_weights: dw,
                d_bias: db,
            })
            .collect();
        conv2d_backward_banks::<B>(
            g,
            batch,
            &input,
            grads.try_into().expect("B banks"),
            &mut d_input,
        );
        [outputs.concat(), d_weights.concat(), d_bias.concat(), d_input].concat()
    }

    #[test]
    fn conv_is_bit_identical_on_every_tier() {
        let geom = |c, h, w, k, s, p| Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel_h: k,
            kernel_w: k,
            stride_h: s,
            stride_w: s,
            pad_h: p,
            pad_w: p,
        };
        // `C_in < 4` (two images per `d_input` tile), odd widths, stride 2.
        let narrow = [geom(3, 9, 11, 3, 1, 1), geom(2, 8, 19, 5, 2, 2), geom(1, 6, 6, 3, 2, 0)];
        // Wide enough for whole 16-column tiles and several channel panels.
        let wide = [geom(8, 16, 16, 1, 1, 0), geom(5, 7, 33, 3, 2, 1)];
        for (i, g) in narrow.iter().chain(&wide).enumerate() {
            // Batch 5: a short last image group at every slot count.
            // `C_out` 1..3 share `dW` lanes between images; 6 fills one
            // 8-lane block; 20 spans three.
            for c in [1, 2, 3, 6, 20] {
                assert_tier_parity(&format!("conv geometry {i}, C_out {c}"), || {
                    conv_banks(g, 5, [c])
                });
            }
            assert_tier_parity(&format!("conv geometry {i}, banks 4+4+2"), || {
                conv_banks(g, 5, [4, 4, 2])
            });
            assert_tier_parity(&format!("conv geometry {i}, banks 1+2+3"), || {
                conv_banks(g, 3, [1, 2, 3])
            });
        }
    }

    #[test]
    fn max_pool_tile_is_bit_identical_on_every_tier() {
        // Output widths 16, 9, 5, 2, 1: the W = 16 / 8 / 4 / 2 / 1 tiles.
        for (hw, k, s, p) in [(32, 2, 2, 0), (9, 3, 1, 1), (6, 2, 1, 0), (3, 2, 1, 0), (2, 2, 2, 0)]
        {
            let g = Conv2dGeometry::square(3, hw, k, s, p);
            let out_len = 2 * 3 * g.col_cols().expect("valid geometry");
            let input = values(2 * g.in_len(), 11);
            assert_tier_parity(&format!("max pool {hw}x{hw} k{k} s{s} p{p}"), || {
                let (mut out, mut argmax) = (vec![0.0f32; out_len], vec![0u32; out_len]);
                pool_forward(&g, 2, &input, &mut out, &mut argmax);
                out.extend(argmax.into_iter().map(f32::from_bits));
                out
            });
        }
    }

    #[test]
    fn lrn_is_bit_identical_on_every_tier() {
        // Spatial sizes with and without a partial last strip; beta 0.75
        // (the square-root chain) and another (powf).
        for (channels, spatial) in [(7, 49), (8, 256), (3, 5)] {
            let input = values(2 * channels * spatial, 12);
            for beta in [0.75, 0.6] {
                let params = LrnParams { size: 5, alpha: 1e-2, beta, k: 1.0 };
                assert_tier_parity(&format!("lrn {channels}x{spatial} beta {beta}"), || {
                    let len = input.len();
                    let (mut out, mut scale) = (vec![0.0f32; len], vec![0.0f32; len]);
                    lrn_forward(&params, 2, channels, spatial, &input, &mut out, &mut scale);
                    let (d_output, mut d_input) = (values(len, 13), vec![0.0f32; len]);
                    lrn_backward(
                        &params,
                        2,
                        channels,
                        spatial,
                        &input,
                        &scale,
                        &d_output,
                        &mut d_input,
                    );
                    [out, scale, d_input].concat()
                });
            }
        }
    }
}
