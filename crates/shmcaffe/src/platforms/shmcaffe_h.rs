//! ShmCaffe-H: the hybrid platform (paper §III-D, Fig. 4).

use std::sync::Arc;

use shmcaffe_collectives::IntraNodeGroup;
use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::{ShmKey, SmbClient, SmbServer};

use crate::config::ShmCaffeConfig;
use crate::hybrid::{run_group_member, HybridHarness, RootHarness};
use crate::report::TrainingReport;
use crate::seasgd::SeasgdBuffers;
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::fleet::{run_fleet, weights_of};

/// The hybrid ShmCaffe platform (paper "ShmCaffe-H"): `groups` worker
/// groups of `group_size` GPUs, one group per node. Within a group, SSGD
/// via ncclAllReduce; between groups, SEASGD through the SMB server. The
/// configuration `16 (S4×A4)` of Table III is `groups = 4, group_size = 4`.
#[derive(Debug, Clone)]
pub struct ShmCaffeH {
    spec: ClusterSpec,
    groups: usize,
    group_size: usize,
    cfg: ShmCaffeConfig,
}

impl ShmCaffeH {
    /// Configures the platform.
    pub fn new(spec: ClusterSpec, groups: usize, group_size: usize, cfg: ShmCaffeConfig) -> Self {
        ShmCaffeH { spec, groups, group_size, cfg }
    }

    /// Total workers (`S × A` in the paper's notation).
    pub fn total_workers(&self) -> usize {
        self.groups * self.group_size
    }

    /// Runs distributed training and returns the fleet report (worker
    /// reports indexed `group * group_size + member`).
    ///
    /// # Errors
    ///
    /// Returns configuration errors or any propagated worker failure.
    pub fn run<F: TrainerFactory>(&self, factory: F) -> Result<TrainingReport, PlatformError> {
        self.cfg.validate().map_err(PlatformError::BadConfig)?;
        if self.groups == 0 || self.group_size == 0 {
            return Err(PlatformError::BadConfig("groups and group_size must be positive".into()));
        }
        if self.groups > self.spec.gpu_nodes {
            return Err(PlatformError::BadConfig(format!(
                "{} groups do not fit {} nodes",
                self.groups, self.spec.gpu_nodes
            )));
        }
        if self.group_size > self.spec.gpus_per_node {
            return Err(PlatformError::BadConfig(format!(
                "group size {} exceeds {} GPUs per node",
                self.group_size, self.spec.gpus_per_node
            )));
        }
        if self.spec.memory_servers == 0 {
            return Err(PlatformError::BadConfig(
                "ShmCaffe requires a memory server on the fabric".to_string(),
            ));
        }

        let fabric = Fabric::new(self.spec);
        let rdma = RdmaFabric::new(fabric.clone());
        let server = SmbServer::new(rdma)?;
        // Root-to-root communicator for the key broadcast: one rank per
        // group, pinned to the group's node.
        let root_world =
            MpiWorld::with_layout(fabric.clone(), (0..self.groups).map(NodeId).collect());
        let factory = Arc::new(factory);
        let cfg = self.cfg;
        let (groups, group_size) = (self.groups, self.group_size);
        let total = self.total_workers();

        run_fleet("ShmCaffe-H", total, |sim, sink| {
            for g in 0..groups {
                let clique = IntraNodeGroup::new(fabric.clone(), NodeId(g), group_size);
                for m in 0..group_size {
                    let gpu = clique.comm(m);
                    let server = server.clone();
                    let factory = Arc::clone(&factory);
                    let sink = sink.clone();
                    let root_comm = (m == 0).then(|| root_world.comm(g));
                    sim.spawn(&format!("shmcaffe_h_g{g}m{m}"), move |ctx| {
                        let global_rank = g * group_size + m;
                        let mut trainer = factory.make(global_rank, total);
                        let param_len = trainer.param_len();
                        let wire = trainer.wire_bytes();

                        let root = root_comm.map(|mut comm| {
                            let client = SmbClient::new(server, NodeId(g));
                            // The master group's root creates the shared
                            // segments and seeds the global weights (Fig. 4:
                            // the master-worker role is played by the root of
                            // Master Worker Group 1).
                            let (wg_key, board_key) = if g == 0 {
                                let wg_key = client
                                    .create(&ctx, "W_g", param_len, Some(wire))
                                    .expect("fresh server");
                                let (_board, board_key) =
                                    ProgressBoard::create(&client, &ctx, "control_info", groups)
                                        .expect("fresh server");
                                let wg = client.alloc(&ctx, wg_key).expect("just created");
                                let w0 = weights_of(&mut trainer);
                                client.write(&ctx, &wg, &w0).expect("sizes match");
                                comm.broadcast(
                                    &ctx,
                                    0,
                                    Some(MpiData::U64s(vec![wg_key.0, board_key.0])),
                                );
                                (wg_key, board_key)
                            } else {
                                let keys = comm.broadcast(&ctx, 0, None).into_u64s();
                                (ShmKey(keys[0]), ShmKey(keys[1]))
                            };
                            let wg = client.alloc(&ctx, wg_key).expect("created by master root");
                            let dw_key = client
                                .create(&ctx, &format!("dW_grp{g}"), param_len, Some(wire))
                                .expect("per-group names are unique");
                            let dw = client.alloc(&ctx, dw_key).expect("just created");
                            let board = ProgressBoard::attach(&client, &ctx, board_key, groups)
                                .expect("board sized for groups");
                            RootHarness { client, buffers: SeasgdBuffers { wg, dw }, board }
                        });

                        let harness = HybridHarness {
                            gpu,
                            group: g,
                            member: m,
                            n_groups: groups,
                            root,
                            cfg,
                            target_iters: cfg.max_iters as u64,
                        };
                        let outcome = run_group_member(&ctx, harness, &mut trainer)
                            .expect("smb operations on live segments succeed");
                        sink.file((outcome.report, outcome.evals));
                        if global_rank == 0 {
                            sink.final_weights(weights_of(&mut trainer));
                        }
                    });
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::ModeledTrainerFactory;
    use shmcaffe_models::WorkloadModel;
    use shmcaffe_simnet::jitter::JitterModel;
    use shmcaffe_simnet::SimDuration;

    fn quick_cfg(iters: usize) -> ShmCaffeConfig {
        ShmCaffeConfig {
            max_iters: iters,
            progress_every: 4,
            jitter: JitterModel::NONE,
            ..Default::default()
        }
    }

    fn factory(wire: u64) -> ModeledTrainerFactory {
        ModeledTrainerFactory::new(
            WorkloadModel::custom("t", wire, SimDuration::from_millis(25)),
            JitterModel::NONE,
            11,
        )
    }

    #[test]
    fn s4_a4_topology_runs() {
        let report = ShmCaffeH::new(ClusterSpec::paper_testbed(4), 4, 4, quick_cfg(8))
            .run(factory(8_000_000))
            .unwrap();
        assert_eq!(report.workers.len(), 16);
        for w in &report.workers {
            assert_eq!(w.iters, 8);
        }
        assert!(report.final_weights.is_some());
    }

    #[test]
    fn hybrid_reduces_smb_traffic_versus_async() {
        // Same 16 GPUs: H sends 4 group exchanges per round, A sends 16.
        use crate::platforms::ShmCaffeA;
        let wire = 50_000_000u64;
        let h = ShmCaffeH::new(ClusterSpec::paper_testbed(4), 4, 4, quick_cfg(6))
            .run(factory(wire))
            .unwrap();
        let a = ShmCaffeA::new(ClusterSpec::paper_testbed(4), 16, quick_cfg(6))
            .run(factory(wire))
            .unwrap();
        // The hybrid run's SMB-bound communication per member must be
        // smaller: compare fleet comm ratios.
        assert!(
            h.mean_comm_ms() < a.mean_comm_ms() * 1.5,
            "H comm {} vs A comm {}",
            h.mean_comm_ms(),
            a.mean_comm_ms()
        );
    }

    #[test]
    fn rejects_oversized_groups() {
        let spec = ClusterSpec::paper_testbed(2);
        assert!(matches!(
            ShmCaffeH::new(spec, 3, 4, quick_cfg(5)).run(factory(1_000_000)),
            Err(PlatformError::BadConfig(_))
        ));
        assert!(matches!(
            ShmCaffeH::new(spec, 2, 5, quick_cfg(5)).run(factory(1_000_000)),
            Err(PlatformError::BadConfig(_))
        ));
    }
}
