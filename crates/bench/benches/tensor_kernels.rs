//! Microbenchmarks of the tensor substrate: gemm, direct convolution,
//! softmax and the BLAS-1 kernels every SEASGD exchange runs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use shmcaffe_tensor::conv::{conv2d_forward, Conv2dGeometry};
use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::ops;
use shmcaffe_tensor::softmax::softmax;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 64, 128] {
        let a = vec![0.5f32; n * n];
        let b = vec![0.25f32; n * n];
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, &n| {
            bench.iter(|| {
                gemm(
                    Transpose::No,
                    Transpose::No,
                    n,
                    n,
                    n,
                    1.0,
                    black_box(&a),
                    black_box(&b),
                    0.0,
                    &mut out,
                );
            });
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    // Inception-style 1x1 bottleneck: GEMM-shaped, one tap per input
    // channel — staging the image is at its dearest relative to the
    // arithmetic.
    let geom = Conv2dGeometry::square(192, 28, 1, 1, 0);
    let out_channels = 64;
    let batch = 8;
    let input = vec![0.1f32; batch * geom.in_len()];
    let weights = vec![0.01f32; out_channels * geom.col_rows()];
    let bias = vec![0.0f32; out_channels];
    let mut output = vec![0.0f32; batch * out_channels * geom.col_cols().unwrap()];
    c.bench_function("conv2d_forward_inception_1x1_64", |b| {
        b.iter(|| {
            conv2d_forward(
                &geom,
                batch,
                out_channels,
                black_box(&input),
                &weights,
                &bias,
                &mut output,
            );
        });
    });
}

fn bench_softmax(c: &mut Criterion) {
    let rows = 64;
    let classes = 1000; // ImageNet-sized head
    let logits = vec![0.3f32; rows * classes];
    let mut probs = vec![0.0f32; rows * classes];
    c.bench_function("softmax_64x1000", |b| {
        b.iter(|| softmax(rows, classes, black_box(&logits), &mut probs));
    });
}

fn bench_axpy_mix(c: &mut Criterion) {
    // The elastic-mixing kernel at the decimated parameter size.
    let n = 4096;
    let x = vec![0.5f32; n];
    let mut y = vec![0.25f32; n];
    c.bench_function("axpy_4096", |b| {
        b.iter(|| ops::axpy(black_box(0.2), black_box(&x), &mut y));
    });
}

criterion_group!(benches, bench_gemm, bench_conv, bench_softmax, bench_axpy_mix);
criterion_main!(benches);
