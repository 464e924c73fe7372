//! Bounded schedule exploration of a real SEASGD slice (DESIGN.md §5i).
//!
//! Two workers run one compute/exchange round each against a live SMB
//! server through the production [`ElasticExchanger`] — update threads,
//! chunk channels, doorbells and all. The explorer drives every tie, wake
//! and delivery choice point within a small budget; the protocol's own
//! internal assertions (chunk accounting, guard pairing, fold bookkeeping)
//! plus an end-state center-variable check must hold under every explored
//! interleaving. The budget is deliberately tiny: this is a smoke-depth
//! model check of the real protocol stack, not a full certification.

use shmcaffe::seasgd::{create_wg, join, seed_wg, ElasticExchanger};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_models::WorkloadModel;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{ExploreBounds, SimDuration, Simulation};
use shmcaffe_smb::{ShmKey, SmbClient, SmbServer};

/// Two elements: the pipelined grid cuts them into two one-element tiles.
const PARAM_LEN: usize = 2;
const WORKERS: usize = 2;

fn setup(sim: &mut Simulation) {
    let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(WORKERS)));
    let server = SmbServer::new(rdma).expect("fresh fabric hosts a memory server");
    let workload = WorkloadModel {
        param_elems: PARAM_LEN,
        ..WorkloadModel::custom("slice", 1_000, SimDuration::from_millis(1))
    };
    let factory = ModeledTrainerFactory::new(workload, JitterModel::NONE, 7);
    let cfg = ShmCaffeConfig { jitter: JitterModel::NONE, ..Default::default() };

    // Worker 0 creates W_g and hands the key to worker 1 over a channel —
    // the same creation→use happens-before edge production startup has.
    let wg_handoff = SimChannel::<Vec<ShmKey>>::new("wg_key");
    // Each worker signals here once its `finish` has returned.
    let finished = SimChannel::<usize>::new("finished");
    for rank in 0..WORKERS {
        let server = server.clone();
        let factory = factory.clone();
        let handoff = wg_handoff.clone();
        let finished = finished.clone();
        sim.spawn(&format!("worker{rank}"), move |ctx| {
            let mut trainer = factory.make(rank, WORKERS);
            let param_len = trainer.param_len();
            let wire = trainer.wire_bytes();
            let lanes = [SmbClient::new(server, NodeId(rank))];
            let wg_keys = if rank == 0 {
                let keys = create_wg(&ctx, &lanes, "W_g", param_len, wire).unwrap();
                let mut w0 = vec![0.0f32; param_len];
                trainer.read_weights(&mut w0);
                seed_wg(&ctx, &lanes, &keys, &w0).unwrap();
                handoff.send(&ctx, keys.clone());
                keys
            } else {
                handoff.recv(&ctx)
            };
            let parts = join(&ctx, &lanes, &wg_keys, &format!("dW_{rank}"), None).unwrap();

            let mut ex = ElasticExchanger::spawn_sharded(&ctx, parts, wire, &cfg, "slice");
            let _loss = trainer.compute_gradients(&ctx);
            trainer.apply_update(&ctx);
            ex.exchange(&ctx, &mut trainer).expect("fault-free fabric");
            let mixed = ex.mixed_weights();
            assert!(
                mixed.iter().all(|v| v.is_finite()),
                "worker {rank}: mixed weights must stay finite"
            );
            ex.finish(&ctx);
            finished.send(&ctx, rank);
        });
    }
    // `finish` settles the pushes: the center variable must have absorbed
    // every fold of both workers as soon as both have finished, whatever
    // the interleaving.
    let server_check = server.clone();
    sim.spawn("check", move |ctx| {
        for _ in 0..WORKERS {
            finished.recv(&ctx);
        }
        let key = server_check.lookup("W_g").expect("W_g exists");
        let version = server_check.version(key).expect("W_g is live");
        // Worker 0's seeding write, then two tile folds per worker.
        let folds = 1 + 2 * WORKERS as u64;
        assert_eq!(version, folds, "every fold must reach W_g once both workers finished");
    });
    sim.set_state_probe(move || server.state_hash());
}

/// A small budget of alternative schedules over the full production
/// exchange: every explored interleaving must pass the protocol's own
/// assertions and converge the center variable.
#[test]
fn seasgd_slice_explores_clean_within_budget() {
    let bounds = ExploreBounds {
        max_schedules: 12,
        max_depth: 48,
        max_preemptions: 2,
        ..ExploreBounds::default()
    };
    let report = Simulation::explore(&bounds, setup);
    assert!(report.failure.is_none(), "SEASGD slice must survive exploration: {report:?}");
    assert!(report.schedules >= 2, "alternative schedules must exist: {report:?}");
    println!(
        "schedcheck seasgd slice: {} explored / {} naive ({} pruned independent, \
         {} bounded out, max depth {})",
        report.schedules,
        report.naive_schedules(),
        report.pruned_independent,
        report.bounded_out,
        report.max_depth_seen
    );
}
