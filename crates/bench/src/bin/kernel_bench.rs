//! Kernel-level throughput benchmark: GEMM, convolution, SMB accumulate.
//!
//! Measures the parallel compute backend at 1/2/4/8 logical threads (via
//! `shmcaffe_tensor::parallel::with_threads`, so one process exercises all
//! schedules) and records the results as `BENCH_kernels.json` at the repo
//! root — the performance trajectory future PRs are held against. Thread
//! counts above the host's `available_parallelism` are not measured in any
//! table: the file lists them as `skipped_threads` instead of recording
//! noise as a "speedup". A copy of the original single-threaded blocked
//! kernel serves as the GEMM baseline.
//!
//! Run with `cargo run --release -p shmcaffe-bench --bin kernel_bench`.
//!
//! Convolution is measured on production-representative shapes — the
//! VGG16 conv3-256 body layer and an Inception-style 1x1 bottleneck — and
//! reported as the forward / backward split in ms and GFLOP/s per thread
//! count.
//!
//! `--checksum` instead trains two proxies — `small_cnn` (3x3 conv, 2x2
//! pools, fc) and the benchmark's `mini_inception(3, 32, 4)` (1x1/3x3/5x5
//! convs, padded stride-1 pools, LRN, Inception concat) — for a fixed
//! number of seeded SGD steps and prints an FNV-1a hash of each net's final
//! weights; CI runs it under `SHMCAFFE_THREADS=1` and `=4` and diffs the
//! output to prove the backend's thread-count invariance end to end.
//!
//! `--layers` times every distinct layer geometry of the benchmark's
//! `mini_inception(3, 32, 4)` at batch 16 through the `Layer` API (forward,
//! backward, and the parameters-only backward the first layer gets) plus one
//! whole training step through the `Net` API, prints the table and replaces
//! the `layers` section of `BENCH_kernels.json`, leaving the other sections
//! as recorded.
//!
//! `--smoke` runs only the VGG layer at 1 and 4 threads and exits
//! non-zero if the 4-thread schedule falls below a host-aware floor — the
//! cheap CI regression gate for the in-image (row band x channel block)
//! task grid.

use shmcaffe_bench::json::{record_or_check, repo_root, Json};
use shmcaffe_bench::table::Table;
use shmcaffe_dnn::data::Dataset;
use shmcaffe_dnn::data::SyntheticImages;
use shmcaffe_dnn::layers::{Conv2d, Inception, InceptionSpec, InnerProduct, Lrn, Pool2d, Relu};
use shmcaffe_dnn::{Layer, LrPolicy, Net, Phase, Solver, SolverConfig};
use shmcaffe_models::proxies;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::Simulation;
use shmcaffe_smb::{SmbClient, SmbServer};
use shmcaffe_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeometry};
use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::init::Filler;
use shmcaffe_tensor::pool::PoolKind;
use shmcaffe_tensor::{parallel, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GEMM_N: usize = 256;

/// Best (minimum) seconds for one call of `f` over `reps` timed calls,
/// after one warm-up call. Minimum-of-N rather than mean: on shared hosts
/// the distribution is best-case-plus-noise, and the minimum estimates
/// the kernel's actual cost robustly.
fn time_per_rep(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn filled(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * scale).sin()).collect()
}

// ---------------------------------------------------------------------------
// Baseline: the pre-parallel blocked kernel (NN case), kept verbatim so the
// GFLOP/s comparison in BENCH_kernels.json stays against a fixed reference.
// ---------------------------------------------------------------------------

const SEED_BLOCK: usize = 64;

#[allow(clippy::many_single_char_names)]
fn seed_gemm_nn(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    c[..m * n].iter_mut().for_each(|v| *v = 0.0);
    for i0 in (0..m).step_by(SEED_BLOCK) {
        let i_max = (i0 + SEED_BLOCK).min(m);
        for p0 in (0..k).step_by(SEED_BLOCK) {
            let p_max = (p0 + SEED_BLOCK).min(k);
            for i in i0..i_max {
                let c_row = &mut c[i * n..(i + 1) * n];
                for p in p0..p_max {
                    let av = alpha * a[i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

fn bench_gemm(threads: &[usize], table: &mut Table) -> Json {
    let (m, n, k) = (GEMM_N, GEMM_N, GEMM_N);
    let a = filled(m * k, 0.013);
    let b = filled(k * n, 0.029);
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * (m * n * k) as f64;
    let reps = 8;

    let seed_s = time_per_rep(reps, || seed_gemm_nn(m, n, k, 1.0, &a, &b, &mut c));
    let seed_gflops = flops / seed_s / 1e9;
    table.row_owned(vec![
        format!("gemm {GEMM_N}^3 (seed kernel)"),
        "1".to_string(),
        format!("{:.2}", seed_s * 1e3),
        format!("{seed_gflops:.2} GFLOP/s"),
        String::new(),
    ]);

    let mut entries = Vec::new();
    let mut one_thread_s = f64::NAN;
    for &t in threads {
        let s = parallel::with_threads(t, || {
            time_per_rep(reps, || {
                gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c);
            })
        });
        if t == 1 {
            one_thread_s = s;
        }
        let gflops = flops / s / 1e9;
        table.row_owned(vec![
            format!("gemm {GEMM_N}^3 (packed)"),
            t.to_string(),
            format!("{:.2}", s * 1e3),
            format!("{gflops:.2} GFLOP/s"),
            format!("{:.2}x vs 1T", one_thread_s / s),
        ]);
        entries.push(Json::obj(vec![
            ("threads", Json::Int(t as i64)),
            ("ms", Json::Num(s * 1e3)),
            ("gflops", Json::Num(gflops)),
            ("speedup_vs_1t", Json::Num(one_thread_s / s)),
        ]));
    }
    let new_1t_gflops = flops / one_thread_s / 1e9;
    Json::obj(vec![
        ("size", Json::Int(GEMM_N as i64)),
        ("seed_kernel_gflops", Json::Num(seed_gflops)),
        ("packed_1t_gflops", Json::Num(new_1t_gflops)),
        ("packed_vs_seed_1t", Json::Num(new_1t_gflops / seed_gflops)),
        ("threads", Json::Arr(entries)),
    ])
}

/// A convolution shape of the kernel table.
struct ConvCase {
    label: &'static str,
    note: &'static str,
    geom: Conv2dGeometry,
    out_channels: usize,
    batch: usize,
    reps: usize,
}

/// Production-representative shapes: the dominant VGG16 body layer and an
/// Inception-style 1x1 bottleneck (GEMM-shaped: kdim == in_channels, so
/// staging and packing overhead weigh most against the arithmetic).
fn conv_cases() -> Vec<ConvCase> {
    vec![
        ConvCase {
            label: "conv vgg16 conv3-256",
            note: "in 256x56x56, kernel 3x3 s1 p1, out 256ch, batch 1",
            geom: Conv2dGeometry::square(256, 56, 3, 1, 1),
            out_channels: 256,
            batch: 1,
            reps: 2,
        },
        ConvCase {
            label: "conv inception 1x1-64",
            note: "in 192x28x28, kernel 1x1 s1 p0, out 64ch, batch 8",
            geom: Conv2dGeometry::square(192, 28, 1, 1, 0),
            out_channels: 64,
            batch: 8,
            reps: 6,
        },
    ]
}

/// Operand and result buffers for one conv case.
struct ConvBuffers {
    input: Vec<f32>,
    weights: Vec<f32>,
    bias: Vec<f32>,
    d_output: Vec<f32>,
    output: Vec<f32>,
    d_weights: Vec<f32>,
    d_bias: Vec<f32>,
    d_input: Vec<f32>,
}

impl ConvBuffers {
    fn new(case: &ConvCase) -> Self {
        let spatial = case.geom.col_cols().expect("valid geometry");
        let in_total = case.batch * case.geom.in_len();
        let out_total = case.batch * case.out_channels * spatial;
        let w_len = case.out_channels * case.geom.col_rows();
        ConvBuffers {
            input: filled(in_total, 0.017),
            weights: filled(w_len, 0.031),
            bias: filled(case.out_channels, 0.11),
            d_output: filled(out_total, 0.023),
            output: vec![0.0f32; out_total],
            d_weights: vec![0.0f32; w_len],
            d_bias: vec![0.0f32; case.out_channels],
            d_input: vec![0.0f32; in_total],
        }
    }
}

fn bench_conv_case(case: &ConvCase, threads: &[usize], table: &mut Table) -> Json {
    let geom = case.geom;
    let (batch, out_channels, reps) = (case.batch, case.out_channels, case.reps);
    let spatial = geom.col_cols().expect("valid geometry");
    let mut b = ConvBuffers::new(case);
    // Forward is one (out_channels x kdim x spatial) product; backward is
    // two of them (dW and dX).
    let fwd_flops = 2.0 * (batch * out_channels * spatial * geom.col_rows()) as f64;
    let gflops = |flops: f64, seconds: f64| flops / seconds / 1e9;

    let mut entries = Vec::new();
    let mut one_thread_s = f64::NAN;
    for &t in threads {
        let (fwd_s, bwd_s) = parallel::with_threads(t, || {
            let fwd = time_per_rep(reps, || {
                conv2d_forward(
                    &geom,
                    batch,
                    out_channels,
                    &b.input,
                    &b.weights,
                    &b.bias,
                    &mut b.output,
                );
            });
            let bwd = time_per_rep(reps, || {
                conv2d_backward(
                    &geom,
                    batch,
                    out_channels,
                    &b.input,
                    &b.weights,
                    &b.d_output,
                    &mut b.d_weights,
                    &mut b.d_bias,
                    &mut b.d_input,
                );
            });
            (fwd, bwd)
        });
        let total = fwd_s + bwd_s;
        if t == 1 {
            one_thread_s = total;
        }
        let (fwd_gflops, bwd_gflops) = (gflops(fwd_flops, fwd_s), gflops(2.0 * fwd_flops, bwd_s));
        table.row_owned(vec![
            case.label.to_string(),
            t.to_string(),
            format!("{:.2}", total * 1e3),
            format!("fwd {:.2} / bwd {:.2} ms", fwd_s * 1e3, bwd_s * 1e3),
            format!(
                "fwd {fwd_gflops:.1} / bwd {bwd_gflops:.1} GFLOP/s, {:.2}x vs 1T",
                one_thread_s / total
            ),
        ]);
        entries.push(Json::obj(vec![
            ("threads", Json::Int(t as i64)),
            ("fwd_ms", Json::Num(fwd_s * 1e3)),
            ("bwd_ms", Json::Num(bwd_s * 1e3)),
            ("total_ms", Json::Num(total * 1e3)),
            ("fwd_gflops", Json::Num(fwd_gflops)),
            ("bwd_gflops", Json::Num(bwd_gflops)),
            ("gflops", Json::Num(gflops(3.0 * fwd_flops, total))),
            ("speedup_vs_1t", Json::Num(one_thread_s / total)),
        ]));
    }
    Json::obj(vec![
        ("name", Json::str(case.label)),
        ("geometry", Json::str(case.note)),
        ("threads", Json::Arr(entries)),
    ])
}

fn bench_conv(threads: &[usize], table: &mut Table) -> Json {
    let cases = conv_cases().iter().map(|c| bench_conv_case(c, threads, table)).collect();
    Json::obj(vec![("cases", Json::Arr(cases))])
}

/// CI smoke gate: times the VGG16 conv3-256 layer (fwd + bwd) at one
/// and four logical threads and fails (exit 1) if the 4T schedule regresses
/// past the host-aware floor. On a multi-core host the parallel path must
/// win outright; a single-core host cannot show wall-clock speedup from
/// extra logical threads, so there the gate only bounds dispatch overhead.
fn smoke(host_threads: usize) -> i32 {
    let cases = conv_cases();
    let case = &cases[0]; // VGG16 conv3-256
    let geom = case.geom;
    let (batch, out_channels) = (case.batch, case.out_channels);
    let mut b = ConvBuffers::new(case);
    let mut step = || {
        conv2d_forward(&geom, batch, out_channels, &b.input, &b.weights, &b.bias, &mut b.output);
        conv2d_backward(
            &geom,
            batch,
            out_channels,
            &b.input,
            &b.weights,
            &b.d_output,
            &mut b.d_weights,
            &mut b.d_bias,
            &mut b.d_input,
        );
    };
    // Best of 8: on a shared 2-vCPU host a stolen core turns a 4T rep into
    // a 1-core run plus dispatch overhead, and best-of-3 met three such
    // reps in a row about one time in five.
    let t1 = parallel::with_threads(1, || time_per_rep(8, &mut step));
    let t4 = parallel::with_threads(4, || time_per_rep(8, &mut step));
    let speedup = t1 / t4;
    // A single-core host cannot show wall-clock parallel speedup, so the
    // floor there only bounds dispatch overhead (loosely: shared hosts
    // show multi-hundred-ms steal spikes).
    let floor = if host_threads >= 2 { 1.0 } else { 0.6 };
    println!(
        "smoke: {} fwd+bwd 1T {:.1} ms, 4T {:.1} ms, speedup {speedup:.2}x \
         (floor {floor:.2}, host cores {host_threads})",
        case.label,
        t1 * 1e3,
        t4 * 1e3,
    );
    if speedup < floor {
        eprintln!("smoke FAILED: conv 4T/1T speedup {speedup:.2}x below floor {floor:.2}x");
        1
    } else {
        println!("smoke OK");
        0
    }
}

fn bench_smb_accumulate(threads: &[usize], table: &mut Table) -> Json {
    const ELEMS: usize = 1 << 20; // 4 MiB of f32 per accumulate
    const ROUNDS: usize = 8;

    let mut entries = Vec::new();
    let mut one_thread_s = f64::NAN;
    for &t in threads {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
        let server = SmbServer::new(RdmaFabric::new(fabric)).unwrap();
        let wall = Arc::new(Mutex::new(0.0f64));
        let wall2 = Arc::clone(&wall);
        let mut sim = Simulation::new();
        sim.spawn("accum", move |ctx| {
            let client = SmbClient::new(server, NodeId(0));
            let src_key = client.create(&ctx, "src", ELEMS, None).unwrap();
            let dst_key = client.create(&ctx, "dst", ELEMS, None).unwrap();
            let src = client.alloc(&ctx, src_key).unwrap();
            let dst = client.alloc(&ctx, dst_key).unwrap();
            let data = filled(ELEMS, 0.019);
            client.write(&ctx, &src, &data).unwrap();
            // The override must live on the sim-process thread: that's
            // where the server's data-plane add executes.
            parallel::with_threads(t, || {
                client.accumulate(&ctx, &src, &dst).unwrap(); // warm-up
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    client.accumulate(&ctx, &src, &dst).unwrap();
                }
                *wall2.lock().unwrap() = t0.elapsed().as_secs_f64() / ROUNDS as f64;
            });
        });
        sim.run();
        let s = *wall.lock().unwrap();
        if t == 1 {
            one_thread_s = s;
        }
        let gbps = (ELEMS * 4) as f64 / s / 1e9;
        table.row_owned(vec![
            format!("smb accumulate {} MiB", ELEMS * 4 / (1 << 20)),
            t.to_string(),
            format!("{:.2}", s * 1e3),
            format!("{gbps:.2} GB/s"),
            format!("{:.2}x vs 1T", one_thread_s / s),
        ]);
        entries.push(Json::obj(vec![
            ("threads", Json::Int(t as i64)),
            ("ms", Json::Num(s * 1e3)),
            ("gbps", Json::Num(gbps)),
            ("speedup_vs_1t", Json::Num(one_thread_s / s)),
        ]));
    }
    Json::obj(vec![("elems", Json::Int(ELEMS as i64)), ("threads", Json::Arr(entries))])
}

/// One layer of the real-training proxy, with the input it sees there.
struct LayerCase {
    label: String,
    layer: Box<dyn Layer>,
    in_dims: [usize; 4],
}

const LAYER_BATCH: usize = 16;
const LAYER_REPS: usize = 100;

/// Every distinct `(layer kind, geometry)` of `proxies::mini_inception(3,
/// 32, 4)` — the `real_inception_a4` workload's net — plus its two
/// Inception modules whole. Branch convolutions that share a geometry
/// (`1x1` and `3x3_reduce` of 3a, `3x3` of 3a and 3b, …) appear once.
fn layer_cases() -> Vec<LayerCase> {
    let mut cases = Vec::new();
    let mut push = |label: String, layer: Box<dyn Layer>, channels: usize, hw: usize| {
        cases.push(LayerCase { label, layer, in_dims: [LAYER_BATCH, channels, hw, hw] });
    };
    let conv = |c_in: usize, c_out: usize, hw: usize, k: usize| -> Box<dyn Layer> {
        let geom = Conv2dGeometry::square(c_in, hw, k, 1, k / 2);
        Box::new(Conv2d::new("conv", geom, c_out, Filler::Msra, 1).expect("geometry fits"))
    };
    let max_pool = |c: usize, hw: usize, k: usize, stride: usize, pad: usize| -> Box<dyn Layer> {
        let geom = Conv2dGeometry::square(c, hw, k, stride, pad);
        Box::new(Pool2d::new("pool", PoolKind::Max, geom).expect("geometry fits"))
    };
    let spec_a = InceptionSpec { c1: 4, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 2, pool_proj: 2 };
    let spec_b = InceptionSpec { c1: 6, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 4, pool_proj: 6 };

    push("stem/conv 3->8 3x3 @32".into(), conv(3, 8, 32, 3), 3, 32);
    push("stem/relu 8x32x32".into(), Box::new(Relu::new("relu")), 8, 32);
    push("stem/lrn 8x32x32".into(), Box::new(Lrn::with_defaults("lrn")), 8, 32);
    push("stem/pool 2x2 s2 8x32x32".into(), max_pool(8, 32, 2, 2, 0), 8, 32);
    for (name, c_in, spec) in [("inception_3a", 8, spec_a), ("inception_3b", 16, spec_b)] {
        let module = Inception::new(name, c_in, 16, spec, 1).expect("geometry fits");
        push(
            format!("{name} whole {c_in}->{} @16", spec.out_channels()),
            Box::new(module),
            c_in,
            16,
        );
    }
    for (c_in, c_out, k) in
        [(8, 4, 1), (8, 2, 1), (16, 6, 1), (16, 4, 1), (16, 2, 1), (4, 8, 3), (2, 2, 5), (2, 4, 5)]
    {
        push(format!("conv {c_in}->{c_out} {k}x{k} @16"), conv(c_in, c_out, 16, k), c_in, 16);
    }
    for c in [8, 16] {
        push(format!("pool 3x3 s1 p1 {c}x16x16"), max_pool(c, 16, 3, 1, 1), c, 16);
    }
    push("pool4 2x2 s2 24x16x16".into(), max_pool(24, 16, 2, 2, 0), 24, 16);
    let classifier = InnerProduct::new("classifier", 24 * 8 * 8, 4, Filler::Xavier, 1);
    push("classifier 1536->4".into(), Box::new(classifier), 24, 8);
    cases
}

/// The `--layers` table: best-of-N forward / backward / parameters-only
/// backward per layer geometry, at each of `threads`.
fn bench_layers(threads: &[usize], table: &mut Table) -> Json {
    let mut rows = Vec::new();
    for case in &mut layer_cases() {
        let x = Tensor::from_vec(filled(case.in_dims.iter().product(), 0.017), &case.in_dims)
            .expect("dims match length");
        let layer = &mut case.layer;
        let out_dims = layer.forward(&x, Phase::Train).expect("shapes match").dims().to_vec();
        let dy = Tensor::from_vec(filled(out_dims.iter().product(), 0.023), &out_dims)
            .expect("dims match length");
        let mut entries = Vec::new();
        for &t in threads {
            let us = |seconds: f64| seconds * 1e6;
            let (fwd, bwd, bwd_params) = parallel::with_threads(t, || {
                (
                    us(time_per_rep(LAYER_REPS, || drop(layer.forward(&x, Phase::Train)))),
                    us(time_per_rep(LAYER_REPS, || drop(layer.backward(&dy)))),
                    us(time_per_rep(LAYER_REPS, || drop(layer.backward_params_only(&dy)))),
                )
            });
            table.row_owned(vec![
                case.label.clone(),
                t.to_string(),
                format!("{fwd:.0}"),
                format!("{bwd:.0}"),
                format!("{bwd_params:.0}"),
            ]);
            entries.push(Json::obj(vec![
                ("threads", Json::Int(t as i64)),
                ("fwd_us", Json::Num(fwd)),
                ("bwd_us", Json::Num(bwd)),
                ("bwd_params_only_us", Json::Num(bwd_params)),
            ]));
        }
        rows.push(Json::obj(vec![
            ("layer", Json::str(case.label.as_str())),
            ("threads", Json::Arr(entries)),
        ]));
    }
    rows.push(bench_whole_step(threads, table));
    Json::obj(vec![
        ("net", Json::str("proxies::mini_inception(3, 32, 4)")),
        ("batch", Json::Int(LAYER_BATCH as i64)),
        ("reps", Json::Int(LAYER_REPS as i64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The whole-step row of `--layers`: `forward_loss` and
/// `backward_from_loss` of the proxy through the unmodified `Net` API — the
/// number a kernel that is fast stand-alone but slow once inlined into the
/// layer stack shows up in.
fn bench_whole_step(threads: &[usize], table: &mut Table) -> Json {
    const LABEL: &str = "whole step: forward_loss + backward_from_loss";
    let mut net = proxies::mini_inception(3, 32, 4, 7).expect("geometry fits");
    let dims = [LAYER_BATCH, 3, 32, 32];
    let x = Tensor::from_vec(filled(dims.iter().product(), 0.017), &dims).expect("dims match");
    let labels: Vec<usize> = (0..LAYER_BATCH).map(|i| i % 4).collect();
    let mut entries = Vec::new();
    for &t in threads {
        let (mut fwd, mut bwd) = (f64::INFINITY, f64::INFINITY);
        parallel::with_threads(t, || {
            for _ in 0..=LAYER_REPS {
                let t0 = Instant::now();
                net.forward_loss(&x, &labels, Phase::Train).expect("shapes match");
                let t1 = Instant::now();
                net.backward_from_loss(&labels).expect("forward ran");
                fwd = fwd.min((t1 - t0).as_secs_f64() * 1e6);
                bwd = bwd.min(t1.elapsed().as_secs_f64() * 1e6);
            }
        });
        table.row_owned(vec![
            LABEL.to_string(),
            t.to_string(),
            format!("{fwd:.0}"),
            format!("{bwd:.0}"),
            "-".to_string(),
        ]);
        entries.push(Json::obj(vec![
            ("threads", Json::Int(t as i64)),
            ("fwd_us", Json::Num(fwd)),
            ("bwd_us", Json::Num(bwd)),
        ]));
    }
    Json::obj(vec![("layer", Json::str(LABEL)), ("threads", Json::Arr(entries))])
}

/// `--layers`: prints the per-layer table and replaces only the `layers`
/// section of the checked-in `BENCH_kernels.json`. The section carries its
/// own `host` keys: it may be recorded on another host than the rest.
fn layers_main(threads: &[usize], host: Vec<(&str, Json)>) {
    println!(
        "Per-layer fwd/bwd of mini_inception(3, 32, 4), batch {LAYER_BATCH}, best of {LAYER_REPS}\n"
    );
    let mut table =
        Table::new("Layer time (us)", &["layer", "threads", "fwd", "bwd", "bwd params-only"]);
    let mut layers = bench_layers(threads, &mut table);
    table.print();
    for (key, value) in host {
        layers.set(key, value);
    }
    update_bench_file(vec![("layers", layers)]);
}

/// Sets `sections` in the checked-in `BENCH_kernels.json`, keeping every
/// section this run did not measure as recorded.
fn update_bench_file(sections: Vec<(&str, Json)>) {
    let path = repo_root().join("BENCH_kernels.json");
    let mut doc = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("starting a fresh BENCH_kernels.json ({e})");
            Json::Obj(Vec::new())
        });
    for (key, value) in sections {
        doc.set(key, value);
    }
    record_or_check("kernels", &doc, false);
}

/// Trains `net` (4 classes of 3-channel `hw x hw` images) for a fixed seeded
/// schedule and returns the FNV-1a hash of the final weight bits. Identical
/// output at any thread count is the end-to-end determinism check wired
/// into `scripts/check.sh`.
fn training_checksum(net: Net, hw: usize) -> u64 {
    let mut solver = Solver::new(
        net,
        SolverConfig {
            base_lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0005,
            policy: LrPolicy::Step { gamma: 0.1, step_size: 20 },
            clip_gradients: Some(5.0),
        },
    );
    let data = SyntheticImages::new(4, 3, hw, 64, 0.5, 20180707);
    let batch = 16;
    for step in 0..30 {
        let indices: Vec<usize> = (0..batch).map(|j| (step * batch + j) % data.len()).collect();
        let (x, labels) = data.minibatch(&indices).expect("indices in range");
        solver.step(&x, &labels).expect("shapes match");
    }
    let mut net = solver.into_net();
    let mut weights = vec![0.0f32; net.param_len()];
    net.copy_weights_to(&mut weights).expect("sized to param_len");

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in weights {
        for byte in w.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn main() {
    if std::env::args().any(|a| a == "--checksum") {
        let small_cnn = proxies::small_cnn(3, 16, 4, 7).expect("geometry fits");
        println!("small_cnn weights_checksum=0x{:016x}", training_checksum(small_cnn, 16));
        let inception = proxies::mini_inception(3, 32, 4, 7).expect("geometry fits");
        println!("mini_inception weights_checksum=0x{:016x}", training_checksum(inception, 32));
        return;
    }

    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke(host_threads));
    }
    // The one host rule, for every table: a thread count the host cannot
    // really run is listed as skipped rather than published as a flat
    // "speedup".
    let (threads, skipped): (Vec<usize>, Vec<usize>) =
        THREAD_COUNTS.iter().partition(|&&t| t <= host_threads);
    println!("host available_parallelism: {host_threads}");
    if !skipped.is_empty() {
        println!("threads {skipped:?} skipped: the host has {host_threads} cores");
    }
    let host = vec![
        ("available_parallelism", Json::Int(host_threads as i64)),
        ("skipped_threads", Json::Arr(skipped.iter().map(|&t| Json::Int(t as i64)).collect())),
    ];
    if std::env::args().any(|a| a == "--layers") {
        layers_main(&threads, host);
        return;
    }
    println!("Kernel throughput per logical thread count (deterministic backend)\n");

    let mut table =
        Table::new("Kernel throughput", &["kernel", "threads", "ms/rep", "throughput", "speedup"]);
    let gemm_json = bench_gemm(&threads, &mut table);
    let conv_json = bench_conv(&threads, &mut table);
    let smb_json = bench_smb_accumulate(&threads, &mut table);
    table.print();

    let mut sections = vec![("benchmark", Json::str("kernel_bench"))];
    sections.extend(host);
    sections.extend([
        ("note", Json::str("thread sweeps use with_threads() overrides")),
        ("gemm", gemm_json),
        ("conv", conv_json),
        ("smb_accumulate", smb_json),
        ("table", Json::from(&table)),
    ]);
    update_bench_file(sections);
}
