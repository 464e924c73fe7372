//! Kernel-level throughput benchmark: GEMM, convolution, SMB accumulate.
//!
//! Measures the parallel compute backend at 1/2/4/8 logical threads (via
//! `shmcaffe_tensor::parallel::with_threads`, so one process exercises all
//! schedules) and records the printed table as `BENCH_kernels.json` at the
//! repo root — the performance trajectory future PRs are held against.
//! Thread counts above the host's `available_parallelism` are not measured
//! in any table: the file lists them as `skipped_threads` instead of
//! recording noise as a "speedup". A copy of the original single-threaded
//! blocked kernel serves as the GEMM baseline. These are host-clock
//! numbers, so unlike `paper`'s record nothing re-checks them.
//!
//! Run with `cargo run --release -p shmcaffe-bench --bin kernel_bench`.
//!
//! Convolution is measured on production-representative shapes — the
//! VGG16 conv3-256 body layer and an Inception-style 1x1 bottleneck — and
//! reported as the forward / backward split in ms and GFLOP/s per thread
//! count.
//!
//! `--layers` times every distinct layer geometry of the benchmark's
//! `mini_inception(3, 32, 4)` at batch 16 through the `Layer` API (forward,
//! backward, and the parameters-only backward the first layer gets) plus one
//! whole training step through the `Net` API, prints the table and records
//! it as `BENCH_layers.json`.
//!
//! `--smoke` runs only the VGG layer at 1 and 4 threads and exits
//! non-zero if the 4-thread schedule falls below a host-aware floor — the
//! cheap CI regression gate for the in-image (row band x channel block)
//! task grid.

use shmcaffe_bench::json::{record_or_check, Json};
use shmcaffe_bench::table::Table;
use shmcaffe_dnn::layers::{Conv2d, Inception, InceptionSpec, InnerProduct, Lrn, Pool2d, Relu};
use shmcaffe_dnn::{Layer, Phase};
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

fn bench_gemm(threads: &[usize], table: &mut Table) {
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
    }
}

/// A convolution shape of the kernel table.
struct ConvCase {
    label: &'static str,
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
            // in 256x56x56, kernel 3x3 s1 p1, out 256ch, batch 1
            label: "conv vgg16 conv3-256",
            geom: Conv2dGeometry::square(256, 56, 3, 1, 1),
            out_channels: 256,
            batch: 1,
            reps: 2,
        },
        ConvCase {
            // in 192x28x28, kernel 1x1 s1 p0, out 64ch, batch 8
            label: "conv inception 1x1-64",
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

fn bench_conv_case(case: &ConvCase, threads: &[usize], table: &mut Table) {
    let geom = case.geom;
    let (batch, out_channels, reps) = (case.batch, case.out_channels, case.reps);
    let spatial = geom.col_cols().expect("valid geometry");
    let mut b = ConvBuffers::new(case);
    // Forward is one (out_channels x kdim x spatial) product; backward is
    // two of them (dW and dX).
    let fwd_flops = 2.0 * (batch * out_channels * spatial * geom.col_rows()) as f64;
    let gflops = |flops: f64, seconds: f64| flops / seconds / 1e9;

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
    }
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

fn bench_smb_accumulate(threads: &[usize], table: &mut Table) {
    const ELEMS: usize = 1 << 20; // 4 MiB of f32 per accumulate
    const ROUNDS: usize = 8;

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
    }
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
fn bench_layers(threads: &[usize], table: &mut Table) {
    for case in &mut layer_cases() {
        let x = Tensor::from_vec(filled(case.in_dims.iter().product(), 0.017), &case.in_dims)
            .expect("dims match length");
        let layer = &mut case.layer;
        let out_dims = layer.forward(&x, Phase::Train).expect("shapes match").dims().to_vec();
        let dy = Tensor::from_vec(filled(out_dims.iter().product(), 0.023), &out_dims)
            .expect("dims match length");
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
        }
    }
    bench_whole_step(threads, table);
}

/// The whole-step row of `--layers`: `forward_loss` and
/// `backward_from_loss` of the proxy through the unmodified `Net` API — the
/// number a kernel that is fast stand-alone but slow once inlined into the
/// layer stack shows up in.
fn bench_whole_step(threads: &[usize], table: &mut Table) {
    const LABEL: &str = "whole step: forward_loss + backward_from_loss";
    let mut net = proxies::mini_inception(3, 32, 4, 7).expect("geometry fits");
    let dims = [LAYER_BATCH, 3, 32, 32];
    let x = Tensor::from_vec(filled(dims.iter().product(), 0.017), &dims).expect("dims match");
    let labels: Vec<usize> = (0..LAYER_BATCH).map(|i| i % 4).collect();
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
    }
}

/// Prints `table` and records it, with the host it was measured on, as
/// `BENCH_<name>.json`: a record is its table.
fn record(name: &str, note: &str, host: Vec<(&str, Json)>, table: &Table) {
    table.print();
    let mut doc =
        vec![("benchmark", Json::str(format!("kernel_bench ({name})"))), ("note", Json::str(note))];
    doc.extend(host);
    doc.push(("tables", Json::Arr(vec![Json::from(table)])));
    if !record_or_check(name, &Json::obj(doc), false) {
        std::process::exit(1);
    }
}

fn main() {
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
        println!(
            "Per-layer fwd/bwd of mini_inception(3, 32, 4), batch {LAYER_BATCH}, best of {LAYER_REPS}\n"
        );
        let mut table =
            Table::new("Layer time (us)", &["layer", "threads", "fwd", "bwd", "bwd params-only"]);
        bench_layers(&threads, &mut table);
        let note = format!(
            "proxies::mini_inception(3, 32, 4), batch {LAYER_BATCH}, best of {LAYER_REPS} reps; \
             thread sweeps use with_threads() overrides"
        );
        record("layers", &note, host, &table);
        return;
    }
    println!("Kernel throughput per logical thread count (deterministic backend)\n");

    let mut table =
        Table::new("Kernel throughput", &["kernel", "threads", "ms/rep", "throughput", "speedup"]);
    bench_gemm(&threads, &mut table);
    conv_cases().iter().for_each(|case| bench_conv_case(case, &threads, &mut table));
    bench_smb_accumulate(&threads, &mut table);
    record("kernels", "best of N reps; thread sweeps use with_threads() overrides", host, &table);
}
