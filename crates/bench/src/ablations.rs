//! `paper ablations` — the design choices called out in DESIGN.md §5:
//!
//! 1. `update_interval` sweep — communication every k-th iteration:
//!    larger intervals amortise the exchange but increase staleness,
//! 2. `moving_rate` sweep — the elastic coefficient α,
//! 3. (hide-the-global-read, the §III-G trade-off the paper decides
//!    against: the mode was deleted; its last numbers are in
//!    EXPERIMENTS.md),
//! 4. straggler sensitivity — SSGD waits for the slowest of 16 draws every
//!    iteration, SEASGD does not,
//! 5. multiple SMB servers — the paper's §V future work: the production
//!    exchanger with one lane per server,
//! 6. the exchange protocol — the paper's (one tile, one SMB stream, read
//!    after the update; the runs Tables V/VI already made, served from
//!    the memo) against the library default (striped read window, early
//!    start under the group all-reduce).

use crate::anchor::Figure;
use crate::experiments::{
    modeled_factory, run_platform, shm_cfg, Measurements, Platform, DEFAULT_MEASURE_ITERS, SEED,
};
use crate::table::{ms, pct, Table};
use shmcaffe::config::ShmCaffeConfig;
use shmcaffe::platforms::{MpiCaffe, ShmCaffeA, SsgdConfig};
use shmcaffe::seasgd::{ElasticExchanger, SeasgdBuffers};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, Simulation};
use shmcaffe_smb::{ShmKey, SmbClient, SmbCluster};

const ITERS: usize = 100;

fn factory(model: CnnModel, jitter: JitterModel) -> ModeledTrainerFactory {
    ModeledTrainerFactory::new(WorkloadModel::from_cnn(model), jitter, SEED)
}

fn update_interval_sweep() -> Table {
    let mut table = Table::new(
        "Ablation 1: update_interval (ShmCaffe-A, ResNet_50, 16 GPUs)",
        &["interval", "comm (ms)", "iter (ms)", "comm ratio"],
    );
    for interval in [1usize, 2, 4, 8] {
        let cfg = ShmCaffeConfig { update_interval: interval, ..shm_cfg(ITERS, true) };
        let report = ShmCaffeA::new(ClusterSpec::paper_testbed(4), 16, cfg)
            .run(modeled_factory(CnnModel::ResNet50, SEED))
            .expect("platform runs");
        table.row_owned(vec![
            interval.to_string(),
            ms(report.mean_comm_ms()),
            ms(report.mean_iter_ms()),
            pct(report.comm_ratio()),
        ]);
    }
    table
}

/// Timing is α-independent; what α changes is the elastic coupling. EASGD
/// is only stable while N·α stays below ~2 (Zhang et al. scale α = β/N):
/// the verdict column is the statement — with 4 workers the sweep is stable
/// through α = 0.5, the N·α = 2 boundary itself, and diverges at 0.9.
fn moving_rate_sweep() -> Table {
    let mut table = Table::new(
        "Ablation 2: moving_rate α (4 modeled workers, |W_g| RMS after 50 iters)",
        &["alpha", "global RMS", "verdict"],
    );
    for &alpha in &[0.05f32, 0.2, 0.5, 0.9] {
        let cfg = ShmCaffeConfig {
            max_iters: 50,
            moving_rate: alpha,
            progress_every: 10,
            ..Default::default()
        };
        let report = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 4, cfg)
            .run(ModeledTrainerFactory::new(
                WorkloadModel::custom("drift", 1_000_000, SimDuration::from_millis(5)),
                JitterModel::NONE,
                SEED,
            ))
            .expect("platform runs");
        // Proxy for the residual: the global buffer norm (workers inject
        // deterministic pseudo-gradients; stronger coupling pulls W_g
        // along, weaker coupling leaves it near zero).
        let wg = report.final_weights.expect("weights recorded");
        let norm = (wg.iter().map(|v| (v * v) as f64).sum::<f64>() / wg.len() as f64).sqrt();
        let verdict = if norm.is_finite() && norm < 1.0 { "stable" } else { "DIVERGES" };
        table.row_owned(vec![format!("{alpha:.2}"), format!("{norm:.5}"), verdict.to_string()]);
    }
    table
}

fn straggler_sensitivity() -> Table {
    let mut table = Table::new(
        "Ablation 4: straggler sensitivity (16 GPUs, Inception_v1)",
        &["jitter sigma", "SSGD iter (ms)", "SEASGD iter (ms)", "SSGD penalty"],
    );
    for &sigma in &[0.0f64, 0.05, 0.15, 0.3] {
        let jitter = if sigma == 0.0 { JitterModel::NONE } else { JitterModel::lognormal(sigma) };
        let ssgd = MpiCaffe::new(
            ClusterSpec::paper_testbed(4),
            16,
            SsgdConfig { max_iters: ITERS, ..Default::default() },
        )
        .run(factory(CnnModel::InceptionV1, jitter))
        .expect("platform runs")
        .mean_iter_ms();
        let async_ = ShmCaffeA::new(ClusterSpec::paper_testbed(4), 16, shm_cfg(ITERS, true))
            .run(factory(CnnModel::InceptionV1, jitter))
            .expect("platform runs")
            .mean_iter_ms();
        table.row_owned(vec![
            format!("{sigma:.2}"),
            ms(ssgd),
            ms(async_),
            format!("{:+.1}%", (ssgd / async_ - 1.0) * 100.0),
        ]);
    }
    table
}

/// The §V future work: stripe the ResNet_50 parameter buffer over K
/// servers — one exchanger lane per server — and run the production
/// SEASGD exchange of 16 workers against them. One lane per server divides
/// both the per-stream pacing and the per-server memory-bus load.
fn multi_smb_servers() -> Table {
    let mut table = Table::new(
        "Ablation 5: multiple SMB servers (16 workers, ResNet_50 exchange over K lanes)",
        &["servers", "mean exchange (ms)", "speedup vs 1"],
    );
    let exchange_ms = |servers: usize| -> f64 {
        let spec = ClusterSpec { memory_servers: servers, ..ClusterSpec::paper_testbed(4) };
        let cluster = SmbCluster::new(RdmaFabric::new(Fabric::new(spec))).expect("servers exist");
        let trainers = factory(CnnModel::ResNet50, JitterModel::NONE);
        let cfg = ShmCaffeConfig { jitter: JitterModel::NONE, ..Default::default() };
        let rounds = 20usize;
        let totals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let key_ch: SimChannel<Vec<ShmKey>> = SimChannel::new("keys");

        let mut sim = Simulation::new();
        for rank in 0..16usize {
            let cluster = cluster.clone();
            let trainers = trainers.clone();
            let totals = std::sync::Arc::clone(&totals);
            let key_ch = key_ch.clone();
            sim.spawn(&format!("w{rank}"), move |ctx| {
                let mut trainer = trainers.make(rank, 16);
                let (param_len, wire) = (trainer.param_len(), trainer.wire_bytes());
                let bounds = cluster.bounds(param_len);
                let lane_wire =
                    |k: usize| wire * (bounds[k + 1] - bounds[k]) as u64 / param_len as u64;
                let clients: Vec<SmbClient> = cluster
                    .servers()
                    .iter()
                    .map(|s| SmbClient::new(s.clone(), NodeId(rank / 4)))
                    .collect();
                // The Fig. 2 handshake, once per shard: rank 0 creates and
                // seeds its slice of W_g, everyone else attaches by key.
                let wg_keys = if rank == 0 {
                    let mut w0 = vec![0.0f32; param_len];
                    trainer.read_weights(&mut w0);
                    let keys: Vec<ShmKey> = clients
                        .iter()
                        .enumerate()
                        .map(|(k, c)| {
                            let (lo, hi) = (bounds[k], bounds[k + 1]);
                            let key =
                                c.create(&ctx, "W_g", hi - lo, Some(lane_wire(k))).expect("fresh");
                            let wg = c.alloc(&ctx, key).expect("created");
                            c.write(&ctx, &wg, &w0[lo..hi]).expect("sizes match");
                            key
                        })
                        .collect();
                    for _ in 1..16 {
                        key_ch.send(&ctx, keys.clone());
                    }
                    keys
                } else {
                    key_ch.recv(&ctx)
                };
                let lanes = clients
                    .into_iter()
                    .enumerate()
                    .map(|(k, c)| {
                        let wg = c.alloc(&ctx, wg_keys[k]).expect("created");
                        let dw_key = c
                            .create(&ctx, &format!("dW_{rank}"), wg.len(), Some(lane_wire(k)))
                            .expect("unique");
                        let dw = c.alloc(&ctx, dw_key).expect("created");
                        (c, SeasgdBuffers { wg, dw })
                    })
                    .collect();
                let mut ex =
                    ElasticExchanger::spawn_sharded(&ctx, lanes, wire, &cfg, &format!("w{rank}"));
                let mut total = SimDuration::ZERO;
                for _ in 0..rounds {
                    total += ex.exchange(&ctx, &mut trainer).expect("live servers");
                    let _loss = trainer.compute_gradients(&ctx);
                    trainer.apply_update(&ctx);
                }
                ex.finish(&ctx);
                totals.lock().push(total.as_millis_f64() / rounds as f64);
            });
        }
        sim.run();
        let v = totals.lock().clone();
        v.iter().sum::<f64>() / v.len() as f64
    };

    let base = exchange_ms(1);
    for servers in [1usize, 2, 4] {
        let t = if servers == 1 { base } else { exchange_ms(servers) };
        table.row_owned(vec![servers.to_string(), ms(t), format!("{:.2}x", base / t)]);
    }
    table
}

/// One SMB connection cannot fill the HCA (Fig. 7): four per worker read
/// `W_g` at line rate while the server has headroom. The "paper" cells are
/// Table V/VI's runs, so after those figures they are memo hits.
fn exchange_protocol(lab: &mut Measurements) -> Table {
    let mut table = Table::new(
        "Ablation 6: exchange protocol, paper vs striped window (comm ms/iter, comm ratio)",
        &["model", "platform", "paper", "striped", "iter (ms) paper", "iter (ms) striped"],
    );
    for model in CnnModel::ALL {
        for (label, platform, gpus) in [
            ("A @8", Platform::ShmCaffeA, 8usize),
            ("A @16", Platform::ShmCaffeA, 16),
            ("H @16 (S4xA4)", Platform::ShmCaffeH, 16),
        ] {
            let paper = lab
                .measure(platform, model, gpus, DEFAULT_MEASURE_ITERS, SEED)
                .expect("platform runs");
            let striped = run_platform(
                platform,
                platform.shape(gpus),
                SsgdConfig::default(),
                shm_cfg(DEFAULT_MEASURE_ITERS, true),
                modeled_factory(model, SEED),
            )
            .expect("platform runs");
            table.row_owned(vec![
                model.to_string(),
                label.to_string(),
                format!("{} ({})", ms(paper.mean_comm_ms()), pct(paper.comm_ratio())),
                format!("{} ({})", ms(striped.mean_comm_ms()), pct(striped.comm_ratio())),
                ms(paper.mean_iter_ms()),
                ms(striped.mean_iter_ms()),
            ]);
        }
    }
    table
}

/// The five tables. No anchors: the paper states none of these numbers.
pub fn figure(lab: &mut Measurements) -> Figure {
    let tables = vec![
        update_interval_sweep(),
        moving_rate_sweep(),
        straggler_sensitivity(),
        multi_smb_servers(),
        exchange_protocol(lab),
    ];
    (tables, Vec::new())
}
