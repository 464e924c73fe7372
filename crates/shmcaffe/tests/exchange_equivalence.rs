//! Bit-identity of the pipelined chunked exchange (DESIGN.md §5g).
//!
//! The chunk grid is derived only from the parameter length, the lane
//! count and `pipelined_exchange` — never from timing — and the elastic
//! mixing is elementwise, so *any* chunking of the exchange must produce
//! exactly the same weights as the monolithic read→mix→push path: same
//! bits, for every parameter length and every thread count — and for
//! every way the striped read window can be filled: fewer tiles than
//! reader connections, one tile, one element per tile, a misaligned last
//! tile, several lanes. These tests run a real single-worker SEASGD loop
//! against live SMB servers and compare the final mixed weights `W_x`
//! bit-for-bit — and, for one paper-sized input, against a pinned hash, so
//! a change that moves the monolithic and the chunked exchange together is
//! caught too.
//!
//! The thread count is the pool's configured one: every exchange runs in
//! simulated processes, on the simulation's own thread, where a caller's
//! `parallel::with_threads` override does not reach
//! (`a_process_ignores_the_callers_thread_override`). `scripts/check.sh`
//! runs the suite at `SHMCAFFE_THREADS=1` and `=4`.

use proptest::prelude::*;
use shmcaffe::seasgd::{
    create_wg, join, seed_wg, stripe, ElasticExchanger, SeasgdBuffers, EXCHANGE_CHUNKS,
    READ_STREAMS,
};
use shmcaffe::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimContext, SimDuration, SimTime, Simulation};
use shmcaffe_smb::{RetryPolicy, SmbClient, SmbPair, SmbServer, SmbServerConfig};
use shmcaffe_tensor::parallel;
use std::sync::Arc;
use std::sync::Mutex;

const ITERS: usize = 3;
const PARAM_LEN: usize = WorkloadModel::DEFAULT_PARAM_ELEMS;

/// Runs a single worker with a `len`-element parameter vector for
/// [`ITERS`] compute/exchange rounds and returns the final mixed weights:
/// the monolithic exchange, or the pipelined one when `pipelined`.
fn final_weights(len: usize, pipelined: bool) -> Vec<f32> {
    final_weights_sharded(1, len, pipelined)
}

/// `W_g` bring-up for one worker over `clients` as lanes, in parameter
/// order: each lane holds its [`stripe`] of the vector in its own
/// `W_g`/`ΔW` segments, `W_g` seeded from the trainer's weights.
fn seeded_lanes<T: Trainer>(
    ctx: &SimContext,
    clients: &[SmbClient],
    trainer: &mut T,
) -> Vec<(SmbClient, SeasgdBuffers)> {
    let mut w0 = vec![0.0f32; trainer.param_len()];
    trainer.read_weights(&mut w0);
    let keys = create_wg(ctx, clients, "W_g", w0.len(), trainer.wire_bytes()).expect("fresh");
    seed_wg(ctx, clients, &keys, &w0).expect("sizes match");
    join(ctx, clients, &keys, "dW_0", None).expect("unique names")
}

/// [`final_weights`] with the buffers striped over `shards` memory servers
/// (one exchanger lane each).
fn final_weights_sharded(shards: usize, len: usize, pipelined: bool) -> Vec<f32> {
    let workload = WorkloadModel {
        param_elems: len,
        ..WorkloadModel::custom("equiv", 4_000_000, SimDuration::from_millis(5))
    };
    run_worker(
        ModeledTrainerFactory::new(workload, JitterModel::NONE, 99),
        ITERS,
        shards,
        pipelined,
    )
}

/// The runner behind every case: one worker of `factory` does `iters`
/// compute/exchange rounds over `shards` lanes and hands back `W_x`.
fn run_worker(
    factory: ModeledTrainerFactory,
    iters: usize,
    shards: usize,
    pipelined: bool,
) -> Vec<f32> {
    let spec = ClusterSpec { memory_servers: shards, ..ClusterSpec::paper_testbed(1) };
    let rdma = RdmaFabric::new(Fabric::new(spec));
    let servers: Vec<SmbServer> = (0..shards)
        .map(|k| SmbServer::with_config_at(rdma.clone(), SmbServerConfig::default(), k))
        .collect::<Result<_, _>>()
        .expect("one memory server per shard");
    let cfg = ShmCaffeConfig {
        pipelined_exchange: pipelined,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let out = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Simulation::new();
    {
        let out = Arc::clone(&out);
        sim.spawn("worker", move |ctx| {
            let mut trainer = factory.make(0, 1);
            let wire = trainer.wire_bytes();
            let clients: Vec<SmbClient> =
                servers.into_iter().map(|s| SmbClient::new(s, NodeId(0))).collect();
            let parts = seeded_lanes(&ctx, &clients, &mut trainer);

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
    assert!(!weights.is_empty(), "worker must have produced weights");
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
/// the pipelined grid, at any thread count. The other tests compare the
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
    for pipelined in [false, true] {
        let factory = ModeledTrainerFactory::new(workload.clone(), JitterModel::NONE, 20180707);
        let weights = run_worker(factory, 6, 1, pipelined);
        assert_eq!(weights.len(), PARAM_LEN);
        assert_eq!(fnv1a(&weights), 0x961c2cb69b5e3e0d, "pipelined={pipelined}");
    }
}

/// The paper-shaped grids, picked by parameter length (a pipelined grid
/// cuts [`EXCHANGE_CHUNKS`] tiles of `len / EXCHANGE_CHUNKS` rounded up):
/// one tile, then two and three — fewer than the [`READ_STREAMS`] reader
/// connections — and five, a tile more than a full round of them, all of
/// one element; every tile one element; a misaligned last tile; and the
/// default 16-tile grid. All must match the monolithic exchange
/// bit-for-bit.
#[test]
fn boundary_grids_match_monolithic_bitwise() {
    let round_and_one = READ_STREAMS + 1;
    for (len, tiles, last) in [
        (1, 1, 1),
        (2, 2, 1),
        (3, 3, 1),
        (round_and_one, round_and_one, 1),
        (EXCHANGE_CHUNKS, EXCHANGE_CHUNKS, 1),
        (1000, 16, 55),
        (PARAM_LEN, 16, 256),
    ] {
        let tile = len.div_ceil(EXCHANGE_CHUNKS);
        assert_eq!((len.div_ceil(tile), len - (tiles - 1) * tile), (tiles, last), "len {len}");
        let mono = final_weights(len, false);
        assert_eq!(mono.len(), len);
        assert_bit_identical(&mono, &final_weights(len, true), &format!("len={len}"));
    }
}

/// Multi-lane grids (`spawn_sharded`): every lane runs its own striped
/// window, the grid is additionally cut at the lane bounds, and the
/// weights still match the single-server monolithic exchange bit-for-bit —
/// monolithic per lane and pipelined, with one-element tiles, a misaligned
/// grid, and the default one.
#[test]
fn multi_lane_grids_match_monolithic_bitwise() {
    for len in [5, 1000, PARAM_LEN] {
        let mono = final_weights(len, false);
        for shards in [2usize, 3] {
            for pipelined in [false, true] {
                let sharded = final_weights_sharded(shards, len, pipelined);
                let what = format!("len={len} shards={shards} pipelined={pipelined}");
                assert_bit_identical(&mono, &sharded, &what);
            }
        }
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

/// One worker, twenty exchanges at `compute_ms` of compute over two lanes,
/// each lane a [`SmbClient::with_failover`] client of its own replicated
/// pair (four memory servers, 10 ms replication); `crash_at` kills pair
/// 0's primary.
fn sharded_failover_run(compute_ms: u64, crash_at: Option<SimTime>) -> ShardedRun {
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
    let workload = WorkloadModel::custom("shards", 4_000_000, SimDuration::from_millis(compute_ms));
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
            let clients: Vec<SmbClient> =
                pairs.iter().map(|p| SmbClient::with_failover(p.clone(), NodeId(0))).collect();
            let parts = seeded_lanes(&ctx, &clients, &mut trainer);

            let mut ex = ElasticExchanger::spawn_sharded(&ctx, parts.clone(), wire, &cfg, "fo");
            for _ in 0..20 {
                let _loss = trainer.compute_gradients(&ctx);
                trainer.apply_update(&ctx);
                ex.exchange(&ctx, &mut trainer).expect("every shard fails over by itself");
            }
            let wx = ex.mixed_weights().to_vec();
            // Every push has landed once `finish` returns: read W_g back
            // shard by shard (shard 0 from whichever server is its primary
            // by now).
            let dropped = ex.finish(&ctx).dropped_updates;
            let retry = RetryPolicy::with_seed(1);
            let mut wg = vec![0.0f32; param_len];
            for (k, (client, bufs)) in parts.iter().enumerate() {
                let (span, _) = stripe(param_len, wire, PAIRS, k);
                client
                    .read_retrying(&ctx, &bufs.wg, &mut wg[span], &retry)
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
    let clean = sharded_failover_run(30, None);
    let crashed = sharded_failover_run(30, Some(SimTime::from_millis(200)));
    assert_eq!(clean.promoted, [false, false]);
    assert_eq!(clean.faults, [0, 0]);
    assert_eq!(crashed.promoted, [true, false], "only the crashed shard's pair promotes");
    assert!(crashed.faults[0] > 0, "lane 0 must have hit the dead primary");
    assert_eq!(crashed.faults[1], 0, "lane 1 never sees the fault");
    assert_eq!((clean.dropped, crashed.dropped), (0, 0));
    assert_bit_identical(&clean.wx, &crashed.wx, "mixed weights across the fail-over");
    assert_bit_identical(&clean.wg, &crashed.wg, "W_g in both shards across the fail-over");
    assert!(clean.wg != vec![0.0; PARAM_LEN], "the exchanges moved W_g");
    assert_eq!(crashed, sharded_failover_run(30, Some(SimTime::from_millis(200))), "rerun");
}

/// Back-to-back exchanges: at 5 ms compute `W_g` is mid-exchange through
/// most replication passes. The pass copies it as it stands and the lane
/// re-pushes whatever the copy misses, so a crash of pair 0's primary at
/// 60 ms or at 100 ms still ends bit-identical to the crash-free run.
#[test]
fn sharded_lanes_fail_over_between_back_to_back_exchanges() {
    let clean = sharded_failover_run(5, None);
    for at in [60, 100] {
        let crashed = sharded_failover_run(5, Some(SimTime::from_millis(at)));
        assert_eq!(crashed.promoted, [true, false], "crash at {at} ms");
        assert_eq!(crashed.dropped, 0, "crash at {at} ms");
        assert_bit_identical(&clean.wx, &crashed.wx, &format!("mixed weights, crash at {at} ms"));
        assert_bit_identical(&clean.wg, &crashed.wg, &format!("W_g, crash at {at} ms"));
    }
}

/// `parallel::with_threads` is a thread-local override of the caller's
/// thread; a simulated process runs on its run's own thread, so it sees
/// the pool's configured count whatever the caller set. Thread-count
/// coverage of the exchange therefore comes from running the suite under
/// different `SHMCAFFE_THREADS`, not from wrapping a run in an override.
#[test]
fn a_process_ignores_the_callers_thread_override() {
    let configured = parallel::configured_threads();
    let override_to = configured + 3;
    let seen = Arc::new(Mutex::new(None));
    let inside = Arc::clone(&seen);
    parallel::with_threads(override_to, || {
        assert_eq!(parallel::current_threads(), override_to);
        let mut sim = Simulation::new();
        sim.spawn("p", move |_| {
            *inside.lock().expect("not poisoned") = Some(parallel::current_threads());
        });
        sim.run();
    });
    assert_eq!(*seen.lock().expect("not poisoned"), Some(configured));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any parameter length at all — aligned, prime, pathological — over
    /// one, two or three lanes yields the same bits as the monolithic
    /// exchange.
    #[test]
    fn any_length_matches_monolithic_bitwise(
        len in 3usize..PARAM_LEN + 65,
        shards in 1usize..4,
    ) {
        let mono = final_weights(len, false);
        let chunked = final_weights_sharded(shards, len, true);
        assert_bit_identical(&mono, &chunked, &format!("len={len} shards={shards}"));
    }
}
