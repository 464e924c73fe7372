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
//! compare the final mixed weights `W_x` bit-for-bit — and, for one
//! paper-sized input, against a pinned hash, so a change that moves the
//! monolithic and the chunked exchange together is caught too.

use proptest::prelude::*;
use shmcaffe::seasgd::{ElasticExchanger, SeasgdBuffers, READ_STREAMS};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimContext, SimDuration, SimTime, Simulation};
use shmcaffe_smb::{RetryPolicy, SmbClient, SmbCluster, SmbPair, SmbServerConfig};
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

/// One exchanger lane per client, in parameter order: lane `k` holds
/// `bounds[k]..bounds[k + 1]` of the vector in its own `W_g`/`ΔW` segments,
/// `W_g` seeded from `w0`.
fn seeded_lanes(
    ctx: &SimContext,
    clients: Vec<SmbClient>,
    bounds: &[usize],
    wire: u64,
    w0: &[f32],
) -> Vec<(SmbClient, SeasgdBuffers)> {
    let lane = |(k, client): (usize, SmbClient)| {
        let (lo, hi) = (bounds[k], bounds[k + 1]);
        let lane_wire = wire * (hi - lo) as u64 / w0.len() as u64;
        let create = |name: &str| {
            let key = client.create(ctx, name, hi - lo, Some(lane_wire));
            client.alloc(ctx, key.expect("unique names")).expect("just created")
        };
        let (wg, dw) = (create("W_g"), create("dW_0"));
        client.write(ctx, &wg, &w0[lo..hi]).expect("sizes match");
        (client, SeasgdBuffers { wg, dw })
    };
    clients.into_iter().enumerate().map(lane).collect()
}

/// [`final_weights`] with the buffers striped over `shards` memory servers
/// (one exchanger lane each, split at [`SmbCluster::bounds`]).
fn final_weights_sharded(shards: usize, chunk_elems: Option<usize>) -> Vec<f32> {
    let workload = WorkloadModel::custom("equiv", 4_000_000, SimDuration::from_millis(5));
    run_worker(
        ModeledTrainerFactory::new(workload, JitterModel::NONE, 99),
        ITERS,
        shards,
        chunk_elems,
    )
}

/// The runner behind every case: one worker of `factory` does `iters`
/// compute/exchange rounds over `shards` lanes and hands back `W_x`.
fn run_worker(
    factory: ModeledTrainerFactory,
    iters: usize,
    shards: usize,
    chunk_elems: Option<usize>,
) -> Vec<f32> {
    let spec = ClusterSpec { memory_servers: shards, ..ClusterSpec::paper_testbed(1) };
    let cluster = SmbCluster::new(RdmaFabric::new(Fabric::new(spec))).expect("fresh fabric");
    let cfg = ShmCaffeConfig {
        pipelined_exchange: chunk_elems.is_some(),
        exchange_chunk_elems: chunk_elems.unwrap_or(0),
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let out = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Simulation::new();
    {
        let out = Arc::clone(&out);
        sim.spawn("worker", move |ctx| {
            let mut trainer = factory.make(0, 1);
            let param_len = trainer.param_len();
            let wire = trainer.wire_bytes();
            let mut w0 = vec![0.0f32; param_len];
            trainer.read_weights(&mut w0);
            let clients =
                cluster.servers().iter().map(|s| SmbClient::new(s.clone(), NodeId(0))).collect();
            let parts = seeded_lanes(&ctx, clients, &cluster.bounds(param_len), wire, &w0);

            let mut ex = ElasticExchanger::spawn_sharded(&ctx, parts, wire, &cfg, "equiv");
            for _ in 0..iters {
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

/// The oracle PRs used to quote from a CLI: six exchanges of the
/// Inception_v1 workload (53.5 MB on the wire, 257 ms compute, factory seed
/// 20180707) on one server end on these exact weights — monolithic and on
/// the default chunk grid, at 1 and 4 threads. The other tests compare the
/// modes with each other; this one pins them, so a change to the mixing
/// arithmetic or the chunk grid that moves both alike still fails.
#[test]
fn inception_exchange_ends_on_the_pinned_weights() {
    let fnv1a = |weights: &[f32]| {
        weights
            .iter()
            .flat_map(|w| w.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    };
    let workload = WorkloadModel::from_cnn(CnnModel::InceptionV1);
    for threads in [1usize, 4] {
        for chunk in [None, Some(0)] {
            let factory = ModeledTrainerFactory::new(workload.clone(), JitterModel::NONE, 20180707);
            let weights = parallel::with_threads(threads, || run_worker(factory, 6, 1, chunk));
            assert_eq!(
                fnv1a(&weights),
                0x961c2cb69b5e3e0d,
                "chunk_elems={chunk:?} threads={threads}"
            );
        }
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

/// What [`sharded_failover_run`] observed.
#[derive(Debug, PartialEq)]
struct ShardedRun {
    /// The worker's mixed weights after the last exchange.
    wx: Vec<f32>,
    /// `W_g` as read back from both shards once the last pushes landed.
    wg: Vec<f32>,
    /// Per pair: whether its standby was promoted.
    promoted: Vec<bool>,
    /// Per lane: transport faults its client observed.
    faults: Vec<u64>,
    dropped: u64,
    end_ns: u64,
}

/// One worker, twenty exchanges at 30 ms compute over two lanes, each lane
/// a [`SmbClient::with_failover`] client of its own replicated pair (four
/// memory servers, 10 ms replication); `crash_at` kills pair 0's primary.
fn sharded_failover_run(crash_at: Option<SimTime>) -> ShardedRun {
    const PAIRS: usize = 2;
    let spec = ClusterSpec { memory_servers: 2 * PAIRS, ..ClusterSpec::paper_testbed(1) };
    let fabric = match crash_at {
        Some(at) => {
            let plan = FaultPlan::new(5).crash_memory_server(NodeId(spec.gpu_nodes), at);
            Fabric::with_faults(spec, plan)
        }
        None => Fabric::new(spec),
    };
    let rdma = RdmaFabric::new(fabric);
    let pairs: Vec<SmbPair> = (0..PAIRS)
        .map(|k| SmbPair::new_at(rdma.clone(), SmbServerConfig::default(), 2 * k))
        .collect::<Result<_, _>>()
        .expect("four memory servers host two pairs");
    let workload = WorkloadModel::custom("shards", 4_000_000, SimDuration::from_millis(30));
    let factory = ModeledTrainerFactory::new(workload, JitterModel::NONE, 99);
    let cfg = ShmCaffeConfig { jitter: JitterModel::NONE, ..Default::default() };
    let out = Arc::new(Mutex::new(None));

    let mut sim = Simulation::new();
    for (k, pair) in pairs.iter().cloned().enumerate() {
        sim.spawn(&format!("replicator{k}"), move |ctx| {
            pair.run_replicator(&ctx, SimDuration::from_millis(10));
        });
    }
    {
        let (pairs, out) = (pairs.clone(), Arc::clone(&out));
        sim.spawn("worker", move |ctx| {
            let mut trainer = factory.make(0, 1);
            let param_len = trainer.param_len();
            let wire = trainer.wire_bytes();
            let mut w0 = vec![0.0f32; param_len];
            trainer.read_weights(&mut w0);
            let bounds: Vec<usize> = (0..=PAIRS).map(|k| k * param_len / PAIRS).collect();
            let clients =
                pairs.iter().map(|p| SmbClient::with_failover(p.clone(), NodeId(0))).collect();
            let parts = seeded_lanes(&ctx, clients, &bounds, wire, &w0);

            let mut ex = ElasticExchanger::spawn_sharded(&ctx, parts.clone(), wire, &cfg, "fo");
            for _ in 0..20 {
                let _loss = trainer.compute_gradients(&ctx);
                trainer.apply_update(&ctx);
                ex.exchange(&ctx, &mut trainer).expect("every shard fails over by itself");
            }
            let wx = ex.mixed_weights().to_vec();
            let dropped = ex.dropped_updates();
            ex.finish(&ctx);
            // Let the last pushes land, then read W_g back shard by shard
            // (shard 0 from whichever server is its primary by now).
            ctx.sleep(SimDuration::from_millis(100));
            let retry = RetryPolicy::with_seed(1);
            let mut wg = vec![0.0f32; param_len];
            for (k, (client, bufs)) in parts.iter().enumerate() {
                client
                    .read_retrying(&ctx, &bufs.wg, &mut wg[bounds[k]..bounds[k + 1]], &retry)
                    .expect("the shard's current primary serves the read");
            }
            for pair in &pairs {
                pair.stop_replicator();
            }
            *out.lock().expect("worker is the only writer") = Some(ShardedRun {
                wx,
                wg,
                promoted: pairs.iter().map(SmbPair::promoted).collect(),
                faults: parts.iter().map(|(c, _)| c.fault_stats().faults).collect(),
                dropped,
                end_ns: ctx.now().as_nanos(),
            });
        });
    }
    sim.run();
    let run = out.lock().expect("simulation finished").take();
    run.expect("worker finished")
}

/// Lanes subsume the deleted `ShardedClient`: a lane takes *any*
/// `SmbClient`, so a sharded deployment of replicated pairs fails over
/// shard by shard through the one op pipeline. Pair 0's primary dies at
/// 200 ms: its lane retries, promotes its standby and refolds; pair 1
/// never notices; nothing is dropped and both shards end bit-identical to
/// the crash-free run.
#[test]
fn sharded_lanes_fail_over_per_shard() {
    let clean = sharded_failover_run(None);
    let crashed = sharded_failover_run(Some(SimTime::from_millis(200)));
    assert_eq!(clean.promoted, [false, false]);
    assert_eq!(clean.faults, [0, 0]);
    assert_eq!(crashed.promoted, [true, false], "only the crashed shard's pair promotes");
    assert!(crashed.faults[0] > 0, "lane 0 must have hit the dead primary");
    assert_eq!(crashed.faults[1], 0, "lane 1 never sees the fault");
    assert_eq!((clean.dropped, crashed.dropped), (0, 0));
    assert_bit_identical(&clean.wx, &crashed.wx, "mixed weights across the fail-over");
    assert_bit_identical(&clean.wg, &crashed.wg, "W_g in both shards across the fail-over");
    assert!(clean.wg != vec![0.0; PARAM_LEN], "the exchanges moved W_g");
    assert_eq!(crashed, sharded_failover_run(Some(SimTime::from_millis(200))), "rerun");
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
