//! BLAS-1 style vector operations and element-wise activation kernels.
//!
//! These free functions operate on `&[f32]` slices so they can be applied to
//! [`crate::Tensor`] buffers, raw parameter vectors shared through the Soft
//! Memory Box, and gradient accumulation buffers alike. This mirrors how
//! Caffe's `math_functions.cpp` exposes `caffe_axpy` etc. over raw pointers.
//!
//! Slices are processed in fixed chunks sized by
//! [`parallel::elemwise_chunk`] — a pure function of the element count, so
//! the grid (and therefore every result, including the chunk-ordered `dot`
//! reduction) is bit-identical at any thread count. Vectors at or below
//! [`parallel::ELEMWISE_PAR_MIN`] stay on the calling thread entirely:
//! dispatching them cost more than it saved (the 2-thread SMB-accumulate
//! regression in BENCH_kernels.json).

use crate::parallel::{self, elemwise_chunk, Task};

/// `y += alpha * x` (the SGD update kernel and the SMB accumulate kernel).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// # Example
///
/// ```rust
/// use shmcaffe_tensor::ops::axpy;
/// let x = [1.0, 2.0];
/// let mut y = [10.0, 20.0];
/// axpy(0.5, &x, &mut y);
/// assert_eq!(y, [10.5, 21.0]);
/// ```
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    parallel::par_zip_mut(y, x, elemwise_chunk(y.len()), |yc, xc| axpy_serial(alpha, xc, yc));
}

/// Single-threaded `y += alpha * x`, for callers that are already inside a
/// parallel region or that combine per-task partials in a fixed order.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy_serial(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x.iter()) {
        *yv += alpha * xv;
    }
}

/// `y = alpha * x + beta * y`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    parallel::par_zip_mut(y, x, elemwise_chunk(y.len()), |yc, xc| {
        for (yv, &xv) in yc.iter_mut().zip(xc.iter()) {
            *yv = alpha * xv + beta * *yv;
        }
    });
}

/// `x *= alpha`.
pub fn scal(alpha: f32, x: &mut [f32]) {
    parallel::par_chunks_mut(x, elemwise_chunk(x.len()), |_, c| {
        for v in c.iter_mut() {
            *v *= alpha;
        }
    });
}

/// Dot product of two equal-length slices.
///
/// Per-chunk partial sums are combined in chunk order, so the result does
/// not depend on the thread count.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let chunk = elemwise_chunk(x.len());
    let chunk_dot =
        |xc: &[f32], yc: &[f32]| xc.iter().zip(yc.iter()).map(|(a, b)| a * b).sum::<f32>();
    if x.len() <= chunk || parallel::current_threads() <= 1 {
        return x.chunks(chunk).zip(y.chunks(chunk)).map(|(xc, yc)| chunk_dot(xc, yc)).sum();
    }
    let n_chunks = x.len().div_ceil(chunk);
    let mut partials = vec![0.0f32; n_chunks];
    {
        let chunk_dot = &chunk_dot;
        let tasks: Vec<Task<'_>> = partials
            .iter_mut()
            .zip(x.chunks(chunk).zip(y.chunks(chunk)))
            .map(|(slot, (xc, yc))| -> Task<'_> { Box::new(move || *slot = chunk_dot(xc, yc)) })
            .collect();
        parallel::run_tasks(tasks);
    }
    partials.iter().sum()
}

/// Element-wise `out = a - b`.
///
/// Used by EASGD to form the elastic difference `W_x - W_g` (paper eq. 5).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    assert_eq!(a.len(), out.len(), "sub output length mismatch");
    parallel::par_zip2_mut(out, a, b, elemwise_chunk(out.len()), |oc, ac, bc| {
        for ((o, &av), &bv) in oc.iter_mut().zip(ac.iter()).zip(bc.iter()) {
            *o = av - bv;
        }
    });
}

/// Element-wise `out = a + b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    assert_eq!(a.len(), out.len(), "add output length mismatch");
    parallel::par_zip2_mut(out, a, b, elemwise_chunk(out.len()), |oc, ac, bc| {
        for ((o, &av), &bv) in oc.iter_mut().zip(ac.iter()).zip(bc.iter()) {
            *o = av + bv;
        }
    });
}

/// Fused EASGD elastic mixing (paper eqs. 5–6): per element,
/// `dw = alpha * (wx - wg); wx -= dw`.
///
/// One pass produces the elastic difference `ΔW` *and* applies it to the
/// local weights, replacing the scalar zip-loop the exchanger used to run.
/// Elementwise (no reductions), so the result is bit-identical at any
/// thread count and for any outer decomposition of the three slices — a
/// chunked exchange mixing `[lo..hi)` sub-slices produces exactly the bits
/// the monolithic pass does.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn elastic_mix(alpha: f32, wx: &mut [f32], dw: &mut [f32], wg: &[f32]) {
    assert_eq!(wx.len(), dw.len(), "elastic_mix length mismatch");
    assert_eq!(wx.len(), wg.len(), "elastic_mix length mismatch");
    parallel::par_zip_mut2(wx, dw, wg, elemwise_chunk(wx.len()), |xc, dc, gc| {
        for ((x, d), &g) in xc.iter_mut().zip(dc.iter_mut()).zip(gc.iter()) {
            *d = alpha * (*x - g);
            *x -= *d;
        }
    });
}

/// ReLU forward: `out[i] = max(0, x[i])`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn relu_forward(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "relu length mismatch");
    parallel::par_zip_mut(out, x, elemwise_chunk(out.len()), |oc, xc| {
        for (o, &v) in oc.iter_mut().zip(xc.iter()) {
            *o = v.max(0.0);
        }
    });
}

/// ReLU backward: `dx[i] = dy[i] * (x[i] > 0)`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn relu_backward(x: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(x.len(), dy.len(), "relu_backward length mismatch");
    assert_eq!(x.len(), dx.len(), "relu_backward output length mismatch");
    parallel::par_zip2_mut(dx, x, dy, elemwise_chunk(dx.len()), |dc, xc, gc| {
        for ((d, &xv), &g) in dc.iter_mut().zip(xc.iter()).zip(gc.iter()) {
            *d = if xv > 0.0 { g } else { 0.0 };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ELEMWISE_CHUNK;

    #[test]
    fn axpy_and_axpby() {
        let x = [1.0, -2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, -3.0, 7.0]);
        axpby(1.0, &x, 0.0, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn scal_dot() {
        let mut x = [1.0, 2.0, 3.0];
        scal(3.0, &mut x);
        assert_eq!(x, [3.0, 6.0, 9.0]);
        assert_eq!(dot(&x, &[1.0, 1.0, 1.0]), 18.0);
    }

    #[test]
    fn sub_add_roundtrip() {
        let a = [5.0, 6.0];
        let b = [2.0, 9.0];
        let mut d = [0.0; 2];
        sub(&a, &b, &mut d);
        assert_eq!(d, [3.0, -3.0]);
        let mut s = [0.0; 2];
        add(&d, &b, &mut s);
        assert_eq!(s, a);
    }

    #[test]
    fn elastic_mix_matches_scalar_reference_bitwise() {
        use crate::parallel::with_threads;
        let n = 6 * ELEMWISE_CHUNK + 77;
        let wx0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.017).sin()).collect();
        let wg: Vec<f32> = (0..n).map(|i| (i as f32 * 0.031).cos()).collect();
        // Scalar reference: exactly the exchanger's original zip-loop.
        let mut wx_ref = wx0.clone();
        let mut dw_ref = vec![0.0f32; n];
        for ((x, d), g) in wx_ref.iter_mut().zip(dw_ref.iter_mut()).zip(wg.iter()) {
            *d = 0.2 * (*x - *g);
            *x -= *d;
        }
        for t in [1usize, 2, 4, 7] {
            let mut wx = wx0.clone();
            let mut dw = vec![0.0f32; n];
            with_threads(t, || elastic_mix(0.2, &mut wx, &mut dw, &wg));
            assert_eq!(wx, wx_ref, "wx threads={t}");
            assert_eq!(dw, dw_ref, "dw threads={t}");
        }
    }

    #[test]
    fn elastic_mix_is_decomposition_invariant() {
        // Mixing the vector in arbitrary sub-slices (the exchange chunk
        // grid) must produce the same bits as one whole-vector pass —
        // the property the chunked exchange's bit-identity rests on.
        let n = ELEMWISE_CHUNK + 300;
        let wx0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.011).sin()).collect();
        let wg: Vec<f32> = (0..n).map(|i| (i as f32 * 0.023).cos()).collect();
        let mut wx_whole = wx0.clone();
        let mut dw_whole = vec![0.0f32; n];
        elastic_mix(0.125, &mut wx_whole, &mut dw_whole, &wg);
        for chunk in [1usize, 7, 1000, n] {
            let mut wx = wx0.clone();
            let mut dw = vec![0.0f32; n];
            let mut lo = 0;
            while lo < n {
                let hi = (lo + chunk).min(n);
                elastic_mix(0.125, &mut wx[lo..hi], &mut dw[lo..hi], &wg[lo..hi]);
                lo = hi;
            }
            assert_eq!(wx, wx_whole, "chunk={chunk}");
            assert_eq!(dw, dw_whole, "chunk={chunk}");
        }
    }

    #[test]
    fn relu_pair_is_consistent() {
        let x = [-1.0, 0.0, 2.0];
        let mut y = [0.0; 3];
        relu_forward(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        let dy = [1.0, 1.0, 1.0];
        let mut dx = [9.0; 3];
        relu_backward(&x, &dy, &mut dx);
        assert_eq!(dx, [0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_panics_on_mismatch() {
        let mut y = [0.0; 2];
        axpy(1.0, &[1.0; 3], &mut y);
    }

    #[test]
    fn large_ops_are_thread_count_invariant() {
        use crate::parallel::with_threads;
        let n = 6 * ELEMWISE_CHUNK + 123;
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.013).sin()).collect();
        let y0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.029).cos()).collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut y = y0.clone();
                axpy(0.37, &x, &mut y);
                axpby(1.25, &x, -0.5, &mut y);
                let mut out = vec![0.0f32; n];
                relu_backward(&x, &y, &mut out);
                let d = dot(&x, &y);
                (y, out, d)
            })
        };
        let (y1, o1, d1) = run(1);
        for t in [2, 4, 7] {
            let (yt, ot, dt) = run(t);
            assert_eq!(y1, yt, "axpy/axpby threads={t}");
            assert_eq!(o1, ot, "activations threads={t}");
            assert_eq!(d1.to_bits(), dt.to_bits(), "dot threads={t}");
        }
    }
}
