//! Non-overlapped SEASGD exchange time: monolithic vs chunked-pipelined
//! vs sharded+chunked.
//!
//! One worker runs the real exchange loop (T1 read → T2 mix → T3 push,
//! paper Fig. 6) against a live SMB server on the simulated FDR fabric
//! and measures what `ElasticExchanger::exchange` actually blocks on —
//! the non-overlapped communication time. The monolithic mode
//! (`pipelined_exchange = false`) is the paper's protocol: one SMB
//! stream reads the whole vector before any mixing starts; the chunked
//! mode streams the exchange over the fixed chunk grid through the
//! striped read window (four reader connections, reads issued as far
//! ahead as the T.A5 gates allow) so `W_g` arrives at line rate while
//! earlier tiles mix; the sharded modes additionally stripe the grid over
//! 2 and 4 memory servers. Results land in `BENCH_comm.json` at the repo
//! root.
//!
//! Run with `cargo run --release -p shmcaffe-bench --bin exchange_bench`.
//!
//! `--check` re-runs the table and, instead of writing, fails on any
//! difference from the checked-in `BENCH_comm.json` — virtual time
//! repeats exactly, so unlike the host-timing smokes this is an exact
//! gate — and on a missed printed target.
//!
//! `--checksum mono|chunked` instead runs a short single-worker training
//! loop and prints an FNV-1a hash of the final mixed weights; CI diffs
//! the output across the two modes and across `SHMCAFFE_THREADS=1` and
//! `=4` to prove the chunked pipeline is bit-identical to the monolithic
//! exchange.

use parking_lot::Mutex;
use shmcaffe::seasgd::{ElasticExchanger, SeasgdBuffers};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_bench::json::{record_or_check, Json};
use shmcaffe_bench::table::Table;
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::Simulation;
use shmcaffe_smb::{SmbClient, SmbCluster};
use std::sync::Arc;

/// Exchanges discarded before measuring: the first fills the pipeline
/// (no pending push to gate on), the second reaches steady state.
const WARMUP: usize = 2;
/// Measured steady-state exchanges per configuration.
const MEASURED: usize = 8;
/// Training iterations of the `--checksum` probe.
const CHECKSUM_ITERS: usize = 6;
/// The printed target: on every compute-bound model (one whose compute
/// phase outlasts its monolithic exchange, so the previous pushes are
/// hidden and the exchange is the `W_g` read plus the mix) the chunked
/// exchange blocks the worker for at most this share of the monolithic
/// one. Four streams against one bound the read share at 1/4.
const TARGET_RATIO: f64 = 0.30;

/// Mean per-exchange timings of one configuration, in milliseconds.
#[derive(Clone, Copy, Default)]
struct Run {
    total_ms: f64,
    wait_ms: f64,
    read_ms: f64,
    mix_ms: f64,
}

/// Runs one worker for `WARMUP + MEASURED` iterations against `shards`
/// memory servers and returns the mean steady-state exchange timings.
/// The weights vector is striped over the shards at `SmbCluster::bounds`.
fn measure(workload: &WorkloadModel, shards: usize, pipelined: bool) -> Run {
    let (run, _) = run_exchanges(workload, shards, pipelined, WARMUP + MEASURED);
    run
}

fn run_exchanges(
    workload: &WorkloadModel,
    shards: usize,
    pipelined: bool,
    iters: usize,
) -> (Run, Vec<f32>) {
    let spec = ClusterSpec { memory_servers: shards, ..ClusterSpec::paper_testbed(1) };
    let rdma = RdmaFabric::new(Fabric::new(spec));
    let cluster = SmbCluster::new(rdma).expect("fresh fabric");
    let cfg = ShmCaffeConfig {
        pipelined_exchange: pipelined,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let factory = ModeledTrainerFactory::new(workload.clone(), JitterModel::NONE, 20180707);
    let out = Arc::new(Mutex::new((Run::default(), Vec::new())));

    let mut sim = Simulation::new();
    {
        let out = Arc::clone(&out);
        sim.spawn("bench_worker", move |ctx| {
            let mut trainer = factory.make(0, 1);
            let param_len = trainer.param_len();
            let wire = trainer.wire_bytes();
            let mut w0 = vec![0.0f32; param_len];
            trainer.read_weights(&mut w0);

            // Per-shard clients and segments, in parameter order.
            let bounds = cluster.bounds(param_len);
            let mut parts = Vec::with_capacity(cluster.len());
            for (k, server) in cluster.servers().iter().enumerate() {
                let (lo, hi) = (bounds[k], bounds[k + 1]);
                let lane_wire = wire * (hi - lo) as u64 / param_len as u64;
                let client = SmbClient::new(server.clone(), NodeId(0));
                let wg_key = client
                    .create(&ctx, &format!("W_g.s{k}"), hi - lo, Some(lane_wire))
                    .expect("unique names");
                let wg = client.alloc(&ctx, wg_key).expect("just created");
                client.write(&ctx, &wg, &w0[lo..hi]).expect("sizes match");
                let dw_key = client
                    .create(&ctx, &format!("dW.s{k}"), hi - lo, Some(lane_wire))
                    .expect("unique names");
                let dw = client.alloc(&ctx, dw_key).expect("just created");
                parts.push((client, SeasgdBuffers { wg, dw }));
            }

            let mut ex = ElasticExchanger::spawn_sharded(&ctx, parts, wire, &cfg, "bench");
            let mut sums = Run::default();
            for iter in 0..iters {
                let _loss = trainer.compute_gradients(&ctx);
                trainer.apply_update(&ctx);
                let blocked = ex.exchange(&ctx, &mut trainer).expect("fault-free fabric");
                if iter >= WARMUP {
                    let phases = ex.phase_times();
                    sums.total_ms += blocked.as_millis_f64();
                    sums.wait_ms += phases.wait.as_millis_f64();
                    sums.read_ms += phases.read.as_millis_f64();
                    sums.mix_ms += phases.mix.as_millis_f64();
                }
            }
            let weights = ex.mixed_weights().to_vec();
            ex.finish(&ctx);
            let measured = (iters - WARMUP.min(iters)) as f64;
            let mean = Run {
                total_ms: sums.total_ms / measured,
                wait_ms: sums.wait_ms / measured,
                read_ms: sums.read_ms / measured,
                mix_ms: sums.mix_ms / measured,
            };
            *out.lock() = (mean, weights);
        });
    }
    sim.run();
    let result = out.lock().clone();
    result
}

/// FNV-1a over the weight bits — the same hash `kernel_bench --checksum`
/// uses, so CI can diff outputs textually.
fn fnv1a(weights: &[f32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in weights {
        for byte in w.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Short single-worker training run; the hash covers the mixed weights
/// `W_x` after the final exchange.
fn training_checksum(pipelined: bool) -> u64 {
    let workload = WorkloadModel::from_cnn(CnnModel::InceptionV1);
    let (_, weights) = run_exchanges(&workload, 1, pipelined, CHECKSUM_ITERS);
    fnv1a(&weights)
}

fn mode_json(run: Run) -> Json {
    Json::obj(vec![
        ("ms", Json::Num(run.total_ms)),
        ("wait_ms", Json::Num(run.wait_ms)),
        ("read_ms", Json::Num(run.read_ms)),
        ("mix_ms", Json::Num(run.mix_ms)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--checksum") {
        let mode = args.get(i + 1).map_or("chunked", String::as_str);
        let pipelined = match mode {
            "mono" | "monolithic" => false,
            "chunked" | "pipelined" => true,
            other => {
                eprintln!("unknown --checksum mode {other:?} (want mono|chunked)");
                std::process::exit(2);
            }
        };
        println!("exchange_checksum=0x{:016x}", training_checksum(pipelined));
        return;
    }

    println!("SEASGD non-overlapped exchange time, monolithic vs chunked-pipelined");
    println!("(single worker, simulated FDR fabric, {MEASURED} steady-state exchanges)\n");

    let mut table = Table::new(
        "Non-overlapped exchange time (ms per exchange)",
        &["model", "wire MB", "mono", "chunked", "speedup", "2 shards", "4 shards", "x4 speedup"],
    );
    let mut models = Vec::new();
    let mut largest_speedup = 0.0f64;
    let mut largest_wire = 0u64;
    let mut worst_ratio = 0.0f64;
    for &cnn in &CnnModel::ALL {
        let workload = WorkloadModel::from_cnn(cnn);
        let mono = measure(&workload, 1, false);
        let chunked = measure(&workload, 1, true);
        let sharded2 = measure(&workload, 2, true);
        let sharded4 = measure(&workload, 4, true);
        let speedup = mono.total_ms / chunked.total_ms;
        let speedup4 = mono.total_ms / sharded4.total_ms;
        if workload.wire_bytes > largest_wire {
            largest_wire = workload.wire_bytes;
            largest_speedup = speedup;
        }
        if workload.comp_time.as_millis_f64() > mono.total_ms {
            worst_ratio = worst_ratio.max(chunked.total_ms / mono.total_ms);
        }
        table.row_owned(vec![
            workload.name.clone(),
            format!("{:.1}", workload.wire_bytes as f64 / 1e6),
            format!("{:.2}", mono.total_ms),
            format!("{:.2}", chunked.total_ms),
            format!("{speedup:.2}x"),
            format!("{:.2}", sharded2.total_ms),
            format!("{:.2}", sharded4.total_ms),
            format!("{speedup4:.2}x"),
        ]);
        models.push(Json::obj(vec![
            ("model", Json::str(workload.name.clone())),
            ("wire_mb", Json::Num(workload.wire_bytes as f64 / 1e6)),
            ("comp_ms", Json::Num(workload.comp_time.as_millis_f64())),
            ("monolithic", mode_json(mono)),
            ("chunked", mode_json(chunked)),
            ("speedup", Json::Num(speedup)),
            (
                "sharded",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("shards", Json::Int(2)),
                        ("chunked", mode_json(sharded2)),
                        ("speedup", Json::Num(mono.total_ms / sharded2.total_ms)),
                    ]),
                    Json::obj(vec![
                        ("shards", Json::Int(4)),
                        ("chunked", mode_json(sharded4)),
                        ("speedup", Json::Num(speedup4)),
                    ]),
                ]),
            ),
        ]));
    }
    table.print();

    let doc = Json::obj(vec![
        ("benchmark", Json::str("exchange_bench")),
        ("warmup_exchanges", Json::Int(WARMUP as i64)),
        ("measured_exchanges", Json::Int(MEASURED as i64)),
        (
            "note",
            Json::str(
                "ms = mean virtual time ElasticExchanger::exchange blocks the worker \
                 (non-overlapped comm); wait = gating on the previous push, read = W_g \
                 stream stalls, mix = elastic mixing; pushes overlap compute in every mode",
            ),
        ),
        ("models", Json::Arr(models)),
        ("largest_model_speedup", Json::Num(largest_speedup)),
        ("compute_bound_worst_ratio", Json::Num(worst_ratio)),
        ("table", Json::from(&table)),
    ]);
    let check = args.iter().any(|a| a == "--check");
    let recorded = record_or_check("comm", &doc, check);
    println!("\nlargest model chunked-vs-monolithic speedup: {largest_speedup:.2}x");
    let met = worst_ratio <= TARGET_RATIO;
    println!(
        "compute-bound models, worst chunked/monolithic: {worst_ratio:.3} \
         (target <= {TARGET_RATIO:.2}: {})",
        if met { "met" } else { "MISSED" }
    );
    if !recorded || (check && !met) {
        std::process::exit(1);
    }
}
