//! `paper comm` — non-overlapped SEASGD exchange time: monolithic vs
//! chunked-pipelined vs sharded+chunked.
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
//! 2 and 4 memory servers. Pushes overlap compute in every mode. (That the
//! modes mix the same bits is `exchange_equivalence.rs`'s job.)

use crate::anchor::{Anchor, Figure};
use crate::experiments::Measurements;
use crate::table::Table;
use parking_lot::Mutex;
use shmcaffe::seasgd::{ElasticExchanger, SeasgdBuffers};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
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
/// The target: on every compute-bound model (one whose compute phase
/// outlasts its monolithic exchange, so the previous pushes are hidden and
/// the exchange is the `W_g` read plus the mix) the chunked exchange
/// blocks the worker for at most this share of the monolithic one. Four
/// streams against one bound the read share at 1/4.
const TARGET_RATIO: f64 = 0.30;

/// Mean milliseconds per steady-state exchange: what the worker blocks on
/// in total, then its split into wait (gating on the previous push), read
/// (`W_g` stream stalls) and mix (elastic mixing).
type Run = [f64; 4];

/// Runs one worker for `WARMUP + MEASURED` iterations against `shards`
/// memory servers, the weights vector striped over them at
/// `SmbCluster::bounds`.
fn measure(workload: &WorkloadModel, shards: usize, pipelined: bool) -> Run {
    let spec = ClusterSpec { memory_servers: shards, ..ClusterSpec::paper_testbed(1) };
    let rdma = RdmaFabric::new(Fabric::new(spec));
    let cluster = SmbCluster::new(rdma).expect("fresh fabric");
    let cfg = ShmCaffeConfig {
        pipelined_exchange: pipelined,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let factory = ModeledTrainerFactory::new(workload.clone(), JitterModel::NONE, 20180707);
    let out = Arc::new(Mutex::new(Run::default()));

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
            for iter in 0..WARMUP + MEASURED {
                let _loss = trainer.compute_gradients(&ctx);
                trainer.apply_update(&ctx);
                let blocked = ex.exchange(&ctx, &mut trainer).expect("fault-free fabric");
                if iter >= WARMUP {
                    let phases = ex.phase_times();
                    for (sum, took) in
                        sums.iter_mut().zip([blocked, phases.wait, phases.read, phases.mix])
                    {
                        *sum += took.as_millis_f64();
                    }
                }
            }
            ex.finish(&ctx);
            *out.lock() = sums.map(|sum| sum / MEASURED as f64);
        });
    }
    sim.run();
    let run = *out.lock();
    run
}

/// The exchange table, the phase split behind each of its cells, and the
/// two summary ratios; the anchor is this repository's own target, not a
/// number of the paper.
pub fn figure(_: &mut Measurements) -> Figure {
    let mut table = Table::new(
        "Non-overlapped exchange time (ms per exchange)",
        &["model", "wire MB", "mono", "chunked", "speedup", "2 shards", "4 shards", "x4 speedup"],
    );
    let mut phases = Table::new(
        &format!(
            "What the exchange blocks the worker on (mean ms over {MEASURED} steady-state exchanges)"
        ),
        &["model", "comp (ms)", "mode", "exchange", "wait", "read", "mix", "speedup vs mono"],
    );
    let mut largest = (0u64, 0.0f64);
    let mut worst_ratio = 0.0f64;
    for &cnn in &CnnModel::ALL {
        let workload = WorkloadModel::from_cnn(cnn);
        let comp_ms = workload.comp_time.as_millis_f64();
        let runs = [
            ("monolithic", measure(&workload, 1, false)),
            ("chunked", measure(&workload, 1, true)),
            ("chunked, 2 shards", measure(&workload, 2, true)),
            ("chunked, 4 shards", measure(&workload, 4, true)),
        ];
        let total = |mode: usize| runs[mode].1[0];
        let speedup = |mode: usize| total(0) / total(mode);
        if workload.wire_bytes > largest.0 {
            largest = (workload.wire_bytes, speedup(1));
        }
        if comp_ms > total(0) {
            worst_ratio = worst_ratio.max(total(1) / total(0));
        }
        table.row_owned(vec![
            workload.name.clone(),
            format!("{:.1}", workload.wire_bytes as f64 / 1e6),
            format!("{:.2}", total(0)),
            format!("{:.2}", total(1)),
            format!("{:.2}x", speedup(1)),
            format!("{:.2}", total(2)),
            format!("{:.2}", total(3)),
            format!("{:.2}x", speedup(3)),
        ]);
        for (mode, (label, run)) in runs.iter().enumerate() {
            let mut row = vec![workload.name.clone(), format!("{comp_ms:.1}"), label.to_string()];
            row.extend(run.iter().map(|ms| format!("{ms:.6}")));
            row.push(format!("{:.6}", speedup(mode)));
            phases.row_owned(row);
        }
    }
    let mut summary = Table::new("Chunked vs monolithic exchange", &["quantity", "value"]);
    summary.row_owned(vec!["largest model, speedup".into(), format!("{:.6}", largest.1)]);
    summary.row_owned(vec![
        format!("compute-bound models, worst chunked/monolithic (target <= {TARGET_RATIO:.2})"),
        format!("{worst_ratio:.6}"),
    ]);
    let met = Anchor::holds("comm.chunked_within_0.30_of_mono", worst_ratio <= TARGET_RATIO);
    (vec![table, phases, summary], vec![met])
}
