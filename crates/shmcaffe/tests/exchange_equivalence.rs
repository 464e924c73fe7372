//! Bit-identity of the pipelined chunked exchange (DESIGN.md §5g).
//!
//! The chunk grid is derived only from `param_len` and the
//! `exchange_chunk_elems` knob — never from timing — and the elastic
//! mixing is elementwise, so *any* chunking of the exchange must produce
//! exactly the same weights as the monolithic read→mix→push path: same
//! bits, for every chunk size and every thread count — and for every way
//! the striped read window can be filled: fewer tiles than reader
//! connections, one tile, one element per tile, several lanes. These tests
//! run a real single-worker SEASGD loop against live SMB servers and
//! compare the final mixed weights `W_x` bit-for-bit.

use proptest::prelude::*;
use shmcaffe::seasgd::{ElasticExchanger, SeasgdBuffers, READ_STREAMS};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_models::WorkloadModel;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, Simulation};
use shmcaffe_smb::{SmbClient, SmbCluster};
use shmcaffe_tensor::parallel;
use std::sync::Arc;
use std::sync::Mutex;

const ITERS: usize = 3;
const PARAM_LEN: usize = WorkloadModel::DEFAULT_PARAM_ELEMS;

/// Runs a single worker for [`ITERS`] compute/exchange rounds and returns
/// the final mixed weights. `chunk_elems = None` selects the monolithic
/// exchange; `Some(n)` the pipelined one with an `n`-element grid.
fn final_weights(chunk_elems: Option<usize>) -> Vec<f32> {
    final_weights_sharded(1, chunk_elems)
}

/// [`final_weights`] with the buffers striped over `shards` memory servers
/// (one exchanger lane each, split at `i * len / shards` like
/// `SmbCluster`'s own).
fn final_weights_sharded(shards: usize, chunk_elems: Option<usize>) -> Vec<f32> {
    let spec = ClusterSpec { memory_servers: shards, ..ClusterSpec::paper_testbed(1) };
    let cluster = SmbCluster::new(RdmaFabric::new(Fabric::new(spec))).expect("fresh fabric");
    let workload = WorkloadModel::custom("equiv", 4_000_000, SimDuration::from_millis(5));
    let factory = ModeledTrainerFactory::new(workload, JitterModel::NONE, 99);
    let cfg = ShmCaffeConfig {
        pipelined_exchange: chunk_elems.is_some(),
        exchange_chunk_elems: chunk_elems.unwrap_or(0),
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let out = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Simulation::new();
    {
        let servers = cluster.servers().to_vec();
        let out = Arc::clone(&out);
        sim.spawn("worker", move |ctx| {
            let mut trainer = factory.make(0, 1);
            let param_len = trainer.param_len();
            let wire = trainer.wire_bytes();
            let mut w0 = vec![0.0f32; param_len];
            trainer.read_weights(&mut w0);
            let mut parts = Vec::with_capacity(shards);
            for (k, server) in servers.into_iter().enumerate() {
                let (lo, hi) = (k * param_len / shards, (k + 1) * param_len / shards);
                let lane_wire = wire * (hi - lo) as u64 / param_len as u64;
                let client = SmbClient::new(server, NodeId(0));
                let create = |name: &str| {
                    let key = client.create(&ctx, name, hi - lo, Some(lane_wire));
                    client.alloc(&ctx, key.expect("unique names")).expect("just created")
                };
                let (wg, dw) = (create("W_g"), create("dW_0"));
                client.write(&ctx, &wg, &w0[lo..hi]).expect("sizes match");
                parts.push((client, SeasgdBuffers { wg, dw }));
            }

            let mut ex = ElasticExchanger::spawn_sharded(&ctx, parts, wire, &cfg, "equiv");
            for _ in 0..ITERS {
                let _loss = trainer.compute_gradients(&ctx);
                trainer.apply_update(&ctx);
                ex.exchange(&ctx, &mut trainer).expect("fault-free fabric");
            }
            let weights = ex.mixed_weights().to_vec();
            ex.finish(&ctx);
            *out.lock().expect("worker is the only writer") = weights;
        });
    }
    sim.run();
    let weights = out.lock().expect("simulation finished").clone();
    assert_eq!(weights.len(), PARAM_LEN, "worker must have produced weights");
    weights
}

fn assert_bit_identical(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: weights diverge at [{i}]: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// The paper-shaped grids: one element per tile, an odd size that
/// misaligns with every boundary, the whole vector in one tile, and a
/// tile larger than the vector (degenerate monolithic); then the grids
/// that leave reader connections idle — two and three tiles for
/// [`READ_STREAMS`] connections — and one with a tile more than a full
/// round of them. All must match the monolithic exchange bit-for-bit, at
/// 1 and 4 threads.
#[test]
fn boundary_chunk_sizes_match_monolithic_bitwise() {
    let few = [PARAM_LEN.div_ceil(2), PARAM_LEN.div_ceil(READ_STREAMS - 1)];
    let round_and_one = PARAM_LEN / (READ_STREAMS + 1);
    for threads in [1usize, 4] {
        parallel::with_threads(threads, || {
            let mono = final_weights(None);
            for chunk in [1usize, 1023, PARAM_LEN, PARAM_LEN + 1000, few[0], few[1], round_and_one]
            {
                let chunked = final_weights(Some(chunk));
                assert_bit_identical(
                    &mono,
                    &chunked,
                    &format!("chunk_elems={chunk} threads={threads}"),
                );
            }
        });
    }
}

/// Multi-lane grids (`spawn_sharded`): every lane runs its own striped
/// window, the grid is additionally cut at the shard boundaries, and the
/// weights still match the single-server monolithic exchange bit-for-bit —
/// monolithic per lane, one element per tile, fewer tiles per lane than
/// connections, and the default grid, at 1 and 4 threads.
#[test]
fn multi_lane_grids_match_monolithic_bitwise() {
    for threads in [1usize, 4] {
        parallel::with_threads(threads, || {
            let mono = final_weights(None);
            for shards in [2usize, 3] {
                for chunk in [None, Some(1), Some(PARAM_LEN / 5), Some(0)] {
                    let sharded = final_weights_sharded(shards, chunk);
                    assert_bit_identical(
                        &mono,
                        &sharded,
                        &format!("shards={shards} chunk_elems={chunk:?} threads={threads}"),
                    );
                }
            }
        });
    }
}

/// The default auto grid (`exchange_chunk_elems = 0`, sixteen tiles) is
/// invariant across thread counts: same bits at 1, 2 and 4 threads.
#[test]
fn default_grid_is_thread_count_invariant() {
    let one = parallel::with_threads(1, || final_weights(Some(0)));
    for threads in [2usize, 4] {
        let more = parallel::with_threads(threads, || final_weights(Some(0)));
        assert_bit_identical(&one, &more, &format!("threads={threads}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any chunk size at all — aligned, prime, pathological — over one,
    /// two or three lanes yields the same bits as the monolithic exchange.
    #[test]
    fn any_chunk_size_matches_monolithic_bitwise(
        chunk in 1usize..PARAM_LEN + 65,
        shards in 1usize..4,
    ) {
        let mono = final_weights(None);
        let chunked = final_weights_sharded(shards, Some(chunk));
        assert_bit_identical(&mono, &chunked, &format!("chunk_elems={chunk} shards={shards}"));
    }
}
