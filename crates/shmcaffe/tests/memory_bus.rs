//! Which resource bounds the ShmCaffe-A exchange on one node (ROADMAP
//! item 4's precondition).
//!
//! Four workers run the SEASGD loop on the modelled VGG16 (528 MB of
//! parameters, 195 ms of compute) against one memory server. Every RDMA
//! byte crosses the server's DRAM bus once and every accumulated byte
//! three times, while the HCA only carries the reads and writes — so the
//! DRAM bus saturates long before the wire does. Overlapping the exchange
//! with backprop cannot shorten an iteration whose critical resource is
//! already busy all the time; this test pins that ordering so the
//! evidence stays attached to the code.

use shmcaffe::seasgd::{create_wg, join, seed_wg, ElasticExchanger};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::Simulation;
use shmcaffe_smb::{ShmKey, SmbClient, SmbServer};
use std::sync::Arc;

const WORKERS: usize = 4;
const ITERS: usize = 20;

#[test]
fn vgg16_exchange_is_bound_by_the_memory_servers_dram_bus() {
    let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
    let server = SmbServer::new(RdmaFabric::new(fabric.clone())).expect("fabric has a server");
    let factory = Arc::new(ModeledTrainerFactory::new(
        WorkloadModel::from_cnn(CnnModel::Vgg16),
        JitterModel::hpc_default(),
        7,
    ));
    let cfg = ShmCaffeConfig { jitter: JitterModel::NONE, seed: 7, ..Default::default() };
    let wg_keys = SimChannel::<Vec<ShmKey>>::new("wg_key");

    let mut sim = Simulation::new();
    for rank in 0..WORKERS {
        let (server, factory, wg_keys) = (server.clone(), Arc::clone(&factory), wg_keys.clone());
        sim.spawn(&format!("w{rank}"), move |ctx| {
            let mut trainer = factory.make(rank, WORKERS);
            let (param_len, wire) = (trainer.param_len(), trainer.wire_bytes());
            let lanes = [SmbClient::new(server, NodeId(0))];
            let wg_keys = if rank == 0 {
                let keys = create_wg(&ctx, &lanes, "W_g", param_len, wire).expect("fresh server");
                let mut w0 = vec![0.0f32; param_len];
                trainer.read_weights(&mut w0);
                seed_wg(&ctx, &lanes, &keys, &w0).expect("sizes match");
                (1..WORKERS).for_each(|_| wg_keys.send(&ctx, keys.clone()));
                keys
            } else {
                wg_keys.recv(&ctx)
            };
            let parts = join(&ctx, &lanes, &wg_keys, &format!("dW_{rank}"), None)
                .expect("master created W_g; per-rank names are unique");
            let mut ex =
                ElasticExchanger::spawn_sharded(&ctx, parts, wire, &cfg, &format!("w{rank}"));
            for _ in 0..ITERS {
                trainer.compute_gradients(&ctx);
                trainer.apply_update(&ctx);
                ex.exchange(&ctx, &mut trainer).expect("fault-free fabric");
            }
            ex.finish(&ctx);
        });
    }
    let wall = sim.run();

    let mem = fabric.memory_server().expect("fabric has a server");
    let dram = server.memory_utilization(wall);
    let (tx, rx) = (fabric.hca_tx(mem).utilization(wall), fabric.hca_rx(mem).utilization(wall));
    println!("dram {dram:.3} hca_tx {tx:.3} hca_rx {rx:.3} over {wall:?}");
    assert!(dram >= 0.95, "DRAM bus busy {dram:.3} of the run");
    assert!(tx < 0.75 && rx < 0.75, "HCA busy tx {tx:.3} rx {rx:.3}");
    assert!(dram > tx.max(rx) + 0.2, "DRAM {dram:.3} vs HCA {tx:.3}/{rx:.3}");
}
