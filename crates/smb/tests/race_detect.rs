//! Integration tests for the vector-clock race detector on the SMB data
//! plane (`--features race-detect`).
//!
//! The seeded test deliberately omits the synchronization edge between two
//! workers so their accesses to the shared W_g segment are concurrent; the
//! detector must produce exactly one report naming both access sites. The
//! companion test adds the missing edge and must stay silent.

#![cfg(feature = "race-detect")]

use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::Simulation;
use shmcaffe_smb::{RetryPolicy, ShmKey, SmbClient, SmbPair, SmbServer, SmbServerConfig};

fn setup(nodes: usize) -> SmbServer {
    let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(nodes)));
    SmbServer::new(rdma).unwrap()
}

/// Worker A plain-writes W_g while worker B accumulates into it, with no
/// happens-before edge between A and B: one write/rmw race, reported once,
/// naming both sites.
#[test]
fn seeded_unsynchronized_accumulate_races_with_write() {
    let server = setup(3);

    let to_a = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_a");
    let to_b = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_b");

    let mut sim = Simulation::new();
    let det = sim.race_detector();
    // Collect reports instead of failing the simulation.
    det.set_halt_on_race(false);
    {
        let s = server.clone();
        let (to_a, to_b) = (to_a.clone(), to_b.clone());
        sim.spawn("setup", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg = client.create(&ctx, "W_g", 8, None).unwrap();
            let dw = client.create(&ctx, "dW_1", 8, None).unwrap();
            // Each worker gets a creation->use edge, but there is no edge
            // between the workers themselves.
            to_a.send(&ctx, (wg, dw));
            to_b.send(&ctx, (wg, dw));
        });
    }
    {
        let s = server.clone();
        sim.spawn("worker_a", move |ctx| {
            let (wg_key, _) = to_a.recv(&ctx);
            let client = SmbClient::new(s, NodeId(1));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            client.write(&ctx, &wg, &[1.0; 8]).unwrap();
        });
    }
    {
        let s = server.clone();
        sim.spawn("worker_b", move |ctx| {
            let (wg_key, dw_key) = to_b.recv(&ctx);
            let client = SmbClient::new(s, NodeId(2));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            client.write(&ctx, &dw, &[0.5; 8]).unwrap();
            client.accumulate(&ctx, &dw, &wg).unwrap();
        });
    }
    sim.run();

    let reports = det.reports();
    assert_eq!(reports.len(), 1, "exactly one race expected, got {reports:#?}");
    let r = &reports[0];
    let mut sites = [r.earlier_site, r.later_site];
    sites.sort_unstable();
    assert_eq!(sites, ["smb::client::write", "smb::server::accumulate(dst)"]);
    assert_ne!(r.earlier_pid, r.later_pid);
    // The report formats both sites for the log line.
    let shown = r.to_string();
    assert!(shown.contains("smb::client::write"), "{shown}");
    assert!(shown.contains("smb::server::accumulate(dst)"), "{shown}");
}

/// The same workload with the missing edge restored (A notifies B after its
/// write) is data-race-free: the halting detector stays silent.
#[test]
fn synchronized_accumulate_after_write_is_race_free() {
    let server = setup(3);

    let to_a = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_a");
    let to_b = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_b");
    let a_done = SimChannel::<()>::new("a_done");

    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        let s = server.clone();
        let (to_a, to_b) = (to_a.clone(), to_b.clone());
        sim.spawn("setup", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg = client.create(&ctx, "W_g", 8, None).unwrap();
            let dw = client.create(&ctx, "dW_1", 8, None).unwrap();
            to_a.send(&ctx, (wg, dw));
            to_b.send(&ctx, (wg, dw));
        });
    }
    {
        let s = server.clone();
        let a_done = a_done.clone();
        sim.spawn("worker_a", move |ctx| {
            let (wg_key, _) = to_a.recv(&ctx);
            let client = SmbClient::new(s, NodeId(1));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            client.write(&ctx, &wg, &[1.0; 8]).unwrap();
            a_done.send(&ctx, ());
        });
    }
    {
        let s = server.clone();
        sim.spawn("worker_b", move |ctx| {
            let (wg_key, dw_key) = to_b.recv(&ctx);
            a_done.recv(&ctx);
            let client = SmbClient::new(s, NodeId(2));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            client.write(&ctx, &dw, &[0.5; 8]).unwrap();
            client.accumulate(&ctx, &dw, &wg).unwrap();
        });
    }
    // halt_on_race defaults to true: any report would fail sim.run().
    sim.run();
    assert!(det.reports().is_empty());
}

/// The full failover path under the halting detector: a worker keeps
/// writing W_g while the replicator mirrors it to the standby, the primary
/// crashes mid-training, and the worker fails over and continues against
/// the standby. The replicate→promote→access happens-before chain (the
/// replicator stamps each pass, promotion joins that stamp, and every
/// post-promotion access joins the promotion stamp) keeps the replicator's
/// plain writes into standby regions ordered before every client access —
/// so the run must stay silent.
#[test]
fn failover_with_promotion_edges_is_race_free() {
    use shmcaffe_simnet::fault::FaultPlan;
    use shmcaffe_simnet::{SimDuration, SimTime};
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary_node = NodeId(spec.gpu_nodes);
    let plan = FaultPlan::new(17).crash_memory_server(primary_node, SimTime::from_millis(10));
    let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
    let pair = SmbPair::new(rdma.clone(), SmbServerConfig::default()).unwrap();

    let to_worker = SimChannel::<ShmKey>::new("wg_key");
    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        let p = pair.clone();
        let to_worker = to_worker.clone();
        sim.spawn("master", move |ctx| {
            let client = SmbClient::with_failover(p, NodeId(0));
            let key = client.create(&ctx, "W_g", 8, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[0.0; 8]).unwrap();
            to_worker.send(&ctx, key);
        });
    }
    {
        let p = pair.clone();
        sim.spawn("replicator", move |ctx| {
            p.run_replicator(&ctx, SimDuration::from_millis(2));
        });
    }
    {
        let p = pair.clone();
        sim.spawn("worker", move |ctx| {
            let key = to_worker.recv(&ctx);
            let client = SmbClient::with_failover(p.clone(), NodeId(1));
            let policy = RetryPolicy::with_seed(17);
            let buf = client.alloc(&ctx, key).unwrap();
            let mut step = 0.0f32;
            while ctx.now() < SimTime::from_millis(20) {
                step += 1.0;
                client.write_retrying(&ctx, &buf, &[step; 8], &policy).unwrap();
                ctx.sleep(SimDuration::from_millis(1));
            }
            assert!(p.promoted(), "the crash must have forced failover");
            let mut out = [0.0f32; 8];
            client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
            assert_eq!(out, [step; 8]);
        });
    }
    // halt_on_race defaults to true: any report would fail sim.run().
    sim.run();
    assert!(det.reports().is_empty());
    assert!(pair.epoch() >= 1, "at least one pass replicated before the crash");
}

/// Seeded missing-edge companion: a client that reaches the standby
/// *directly* — skipping `active_server`'s promotion join, i.e. without the
/// promote→access edge — is concurrent with the replicator's plain write
/// into the mirrored region. The detector must catch exactly that pair,
/// naming the replication apply site.
#[test]
fn seeded_standby_access_without_promotion_edge_is_caught() {
    use shmcaffe_simnet::SimTime;
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let rdma = RdmaFabric::new(Fabric::new(spec));
    let pair = SmbPair::new(rdma.clone(), SmbServerConfig::default()).unwrap();

    let to_repl = SimChannel::<ShmKey>::new("key_to_repl");
    let to_rogue = SimChannel::<ShmKey>::new("key_to_rogue");
    let mut sim = Simulation::new();
    let det = sim.race_detector();
    det.set_halt_on_race(false);
    {
        let p = pair.clone();
        let (to_repl, to_rogue) = (to_repl.clone(), to_rogue.clone());
        sim.spawn("master", move |ctx| {
            let client = SmbClient::with_failover(p, NodeId(0));
            let key = client.create(&ctx, "W_g", 8, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0; 8]).unwrap();
            to_repl.send(&ctx, key);
            to_rogue.send(&ctx, key);
        });
    }
    {
        let p = pair.clone();
        sim.spawn("replicator", move |ctx| {
            to_repl.recv(&ctx);
            p.replicate(&ctx).unwrap();
        });
    }
    {
        let p = pair.clone();
        sim.spawn("rogue", move |ctx| {
            let key = to_rogue.recv(&ctx);
            // Wait (in sim time only — deliberately no channel, which would
            // create the very happens-before edge this test omits) until
            // the replication pass has installed the mirror.
            ctx.sleep_until(SimTime::from_millis(50));
            // Bind straight to the standby, bypassing the pair's routing
            // and its promotion join.
            let client = SmbClient::new(p.standby().clone(), NodeId(1));
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[2.0; 8]).unwrap();
        });
    }
    sim.run();

    let reports = det.reports();
    assert_eq!(reports.len(), 1, "exactly one race expected, got {reports:#?}");
    let r = &reports[0];
    let mut sites = [r.earlier_site, r.later_site];
    sites.sort_unstable();
    assert_eq!(sites, ["smb::client::write", "smb::replica::apply"]);
    assert_ne!(r.earlier_pid, r.later_pid);
}

/// Fence-based promotion (no crash): a partition isolates the primary, the
/// majority-side worker waits out the authority lease and promotes the
/// standby, and the minority-side worker is rejected `FencedEpoch`, fails
/// over, refreshes its epoch (joining the promotion winner's fence stamp)
/// and continues after the heal. The fence-acquire→first-fenced-write
/// chain orders every post-fence access after the replicator's plain
/// mirror writes — the run must stay silent under the halting detector.
#[test]
fn fence_acquire_chain_is_race_free() {
    use shmcaffe_simnet::fault::FaultPlan;
    use shmcaffe_simnet::{SimDuration, SimTime};
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary = NodeId(spec.gpu_nodes);
    let standby = NodeId(spec.gpu_nodes + 1);
    // Minority: worker 0 + the primary. Majority: worker 1 + the standby.
    let plan = FaultPlan::new(31).partition(
        vec![vec![NodeId(0), primary], vec![NodeId(1), standby]],
        SimTime::from_millis(20),
        Some(SimTime::from_millis(150)),
    );
    let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
    let cfg =
        SmbServerConfig { authority_timeout: SimDuration::from_millis(40), ..Default::default() };
    let pair = SmbPair::new(rdma.clone(), cfg).unwrap();

    let to_w0 = SimChannel::<ShmKey>::new("key_to_w0");
    let to_w1 = SimChannel::<ShmKey>::new("key_to_w1");
    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        // Each worker owns its segment (the SEASGD ΔW layout): the fence
        // chain is exercised against the replicator's mirror writes, not
        // against a worker-vs-worker conflict.
        let p = pair.clone();
        let (to_w0, to_w1) = (to_w0.clone(), to_w1.clone());
        sim.spawn("master", move |ctx| {
            let client = SmbClient::with_failover(p, NodeId(0));
            let dw0 = client.create(&ctx, "dW_0", 8, None).unwrap();
            let dw1 = client.create(&ctx, "dW_1", 8, None).unwrap();
            let b0 = client.alloc(&ctx, dw0).unwrap();
            let b1 = client.alloc(&ctx, dw1).unwrap();
            client.write(&ctx, &b0, &[0.0; 8]).unwrap();
            client.write(&ctx, &b1, &[0.0; 8]).unwrap();
            to_w0.send(&ctx, dw0);
            to_w1.send(&ctx, dw1);
        });
    }
    {
        let p = pair.clone();
        sim.spawn("replicator", move |ctx| {
            p.run_replicator(&ctx, SimDuration::from_millis(10));
        });
    }
    {
        // Majority side: observes the severed path + expired lease,
        // promotes the standby (acquiring the fence) and writes there.
        let p = pair.clone();
        sim.spawn("worker_majority", move |ctx| {
            let key = to_w1.recv(&ctx);
            let client = SmbClient::with_failover(p.clone(), NodeId(1));
            let buf = client.alloc(&ctx, key).unwrap();
            ctx.sleep_until(SimTime::from_millis(70));
            let policy = RetryPolicy::with_seed(31);
            client.write_retrying(&ctx, &buf, &[1.0; 8], &policy).unwrap();
            assert!(p.promoted(), "lease expiry must have legalized promotion");
        });
    }
    {
        // Minority side: its first post-promotion mutation is fenced,
        // which routes it through fail_over + epoch refresh; it finishes
        // its write on the standby once the partition heals.
        let p = pair.clone();
        sim.spawn("worker_minority", move |ctx| {
            let key = to_w0.recv(&ctx);
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let buf = client.alloc(&ctx, key).unwrap();
            ctx.sleep_until(SimTime::from_millis(160));
            let policy = RetryPolicy::with_seed(32);
            client.write_retrying(&ctx, &buf, &[2.0; 8], &policy).unwrap();
            assert_eq!(client.carried_epoch(), 2);
        });
    }
    // halt_on_race defaults to true: any report would fail sim.run().
    sim.run();
    assert!(det.reports().is_empty());
    assert!(pair.promoted());
}

/// Seeded missing-fence companion: after the fence-based promotion, a
/// rogue client binds straight to the standby and plain-writes a mirrored
/// segment without ever refreshing an epoch or joining the fence stamp —
/// concurrent with the replicator's mirror write into that region. The
/// detector must catch exactly that pair.
#[test]
fn seeded_write_without_fence_join_is_caught() {
    use shmcaffe_simnet::fault::FaultPlan;
    use shmcaffe_simnet::{SimDuration, SimTime};
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary = NodeId(spec.gpu_nodes);
    let standby = NodeId(spec.gpu_nodes + 1);
    let plan = FaultPlan::new(37).partition(
        vec![vec![NodeId(0), primary], vec![NodeId(1), standby]],
        SimTime::from_millis(20),
        Some(SimTime::from_millis(150)),
    );
    let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
    let cfg =
        SmbServerConfig { authority_timeout: SimDuration::from_millis(40), ..Default::default() };
    let pair = SmbPair::new(rdma.clone(), cfg).unwrap();

    let to_w1 = SimChannel::<ShmKey>::new("wg_to_w1");
    let to_rogue = SimChannel::<ShmKey>::new("ckpt_to_rogue");
    let mut sim = Simulation::new();
    let det = sim.race_detector();
    det.set_halt_on_race(false);
    {
        let p = pair.clone();
        let (to_w1, to_rogue) = (to_w1.clone(), to_rogue.clone());
        sim.spawn("master", move |ctx| {
            let client = SmbClient::with_failover(p, NodeId(0));
            let wg = client.create(&ctx, "W_g", 8, None).unwrap();
            let ckpt = client.create(&ctx, "ckpt", 8, None).unwrap();
            let wg_buf = client.alloc(&ctx, wg).unwrap();
            let ckpt_buf = client.alloc(&ctx, ckpt).unwrap();
            client.write(&ctx, &wg_buf, &[0.0; 8]).unwrap();
            client.write(&ctx, &ckpt_buf, &[0.5; 8]).unwrap();
            to_w1.send(&ctx, wg);
            to_rogue.send(&ctx, ckpt);
        });
    }
    {
        let p = pair.clone();
        sim.spawn("replicator", move |ctx| {
            p.run_replicator(&ctx, SimDuration::from_millis(10));
        });
    }
    {
        let p = pair.clone();
        sim.spawn("worker_majority", move |ctx| {
            let key = to_w1.recv(&ctx);
            let client = SmbClient::with_failover(p.clone(), NodeId(1));
            let buf = client.alloc(&ctx, key).unwrap();
            ctx.sleep_until(SimTime::from_millis(70));
            let policy = RetryPolicy::with_seed(37);
            client.write_retrying(&ctx, &buf, &[1.0; 8], &policy).unwrap();
            assert!(p.promoted());
        });
    }
    {
        let p = pair.clone();
        sim.spawn("rogue", move |ctx| {
            let key = to_rogue.recv(&ctx);
            // Wait in sim time only — no channel from the promoter, no
            // fail_over, no epoch refresh: every fence edge is missing.
            ctx.sleep_until(SimTime::from_millis(100));
            let client = SmbClient::new(p.standby().clone(), NodeId(1));
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[7.0; 8]).unwrap();
        });
    }
    sim.run();

    let reports = det.reports();
    assert_eq!(reports.len(), 1, "exactly one race expected, got {reports:#?}");
    let r = &reports[0];
    let mut sites = [r.earlier_site, r.later_site];
    sites.sort_unstable();
    assert_eq!(sites, ["smb::client::write", "smb::replica::apply"]);
    assert_ne!(r.earlier_pid, r.later_pid);
}

/// The chunked-exchange handoff pattern (DESIGN.md §5g): a mixer process
/// plain-writes ΔW one tile at a time and announces each finished tile
/// over a channel; the pusher accumulates exactly the announced tile into
/// W_g. Every per-tile channel send→recv is the happens-before edge that
/// orders the mixer's `write_range` before the pusher's range-accumulate
/// read of the same tile — the chain must be silent under the halting
/// detector, even while tile k+1 is being written concurrently with tile
/// k's accumulate.
#[test]
fn per_chunk_channel_edges_make_the_tile_chain_race_free() {
    let server = setup(3);

    let to_mixer = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_mixer");
    let to_pusher = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_pusher");
    let tile_ready = SimChannel::<usize>::new("tile_ready");
    const TILES: usize = 4;
    const TILE: usize = 2;

    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        let s = server.clone();
        let (to_mixer, to_pusher) = (to_mixer.clone(), to_pusher.clone());
        sim.spawn("setup", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg = client.create(&ctx, "W_g", TILES * TILE, None).unwrap();
            let dw = client.create(&ctx, "dW", TILES * TILE, None).unwrap();
            to_mixer.send(&ctx, (wg, dw));
            to_pusher.send(&ctx, (wg, dw));
        });
    }
    {
        let s = server.clone();
        let tile_ready = tile_ready.clone();
        sim.spawn("mixer", move |ctx| {
            let (_, dw_key) = to_mixer.recv(&ctx);
            let client = SmbClient::new(s, NodeId(1));
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let policy = RetryPolicy::with_seed(41);
            for tile in 0..TILES {
                let data = [tile as f32 + 1.0; TILE];
                client.write_range_retrying(&ctx, &dw, tile * TILE, &data, &policy).unwrap();
                tile_ready.send(&ctx, tile);
            }
        });
    }
    {
        let s = server.clone();
        sim.spawn("pusher", move |ctx| {
            let (wg_key, dw_key) = to_pusher.recv(&ctx);
            let client = SmbClient::new(s, NodeId(2));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let policy = RetryPolicy::with_seed(42);
            for _ in 0..TILES {
                let tile = tile_ready.recv(&ctx);
                client
                    .accumulate_range_retrying(&ctx, &dw, &wg, tile * TILE, TILE, &policy)
                    .unwrap();
            }
            let mut out = [0.0f32; TILES * TILE];
            client.read(&ctx, &wg, &mut out).unwrap();
            assert_eq!(out, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        });
    }
    // halt_on_race defaults to true: any report would fail sim.run().
    sim.run();
    assert!(det.reports().is_empty());
}

/// Seeded missing-edge companion: the pusher accumulates the tile after a
/// sim-time sleep instead of the channel recv. The mixer's plain
/// `write_range` of that tile and the accumulate's source read are now
/// concurrent — the detector must catch exactly that pair, naming the
/// range sites.
#[test]
fn seeded_missing_per_chunk_edge_is_caught() {
    let server = setup(3);

    let to_mixer = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_mixer");
    let to_pusher = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_pusher");

    let mut sim = Simulation::new();
    let det = sim.race_detector();
    det.set_halt_on_race(false);
    {
        let s = server.clone();
        let (to_mixer, to_pusher) = (to_mixer.clone(), to_pusher.clone());
        sim.spawn("setup", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg = client.create(&ctx, "W_g", 8, None).unwrap();
            let dw = client.create(&ctx, "dW", 8, None).unwrap();
            to_mixer.send(&ctx, (wg, dw));
            to_pusher.send(&ctx, (wg, dw));
        });
    }
    {
        let s = server.clone();
        sim.spawn("mixer", move |ctx| {
            let (_, dw_key) = to_mixer.recv(&ctx);
            let client = SmbClient::new(s, NodeId(1));
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let policy = RetryPolicy::with_seed(43);
            client.write_range_retrying(&ctx, &dw, 0, &[1.0; 4], &policy).unwrap();
        });
    }
    {
        let s = server.clone();
        sim.spawn("pusher", move |ctx| {
            use shmcaffe_simnet::SimTime;
            let (wg_key, dw_key) = to_pusher.recv(&ctx);
            // Sleep in sim time only — deliberately no channel recv, so the
            // per-tile happens-before edge is missing.
            ctx.sleep_until(SimTime::from_millis(50));
            let client = SmbClient::new(s, NodeId(2));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let policy = RetryPolicy::with_seed(44);
            client.accumulate_range_retrying(&ctx, &dw, &wg, 0, 4, &policy).unwrap();
        });
    }
    sim.run();

    let reports = det.reports();
    assert_eq!(reports.len(), 1, "exactly one race expected, got {reports:#?}");
    let r = &reports[0];
    let mut sites = [r.earlier_site, r.later_site];
    sites.sort_unstable();
    assert_eq!(sites, ["smb::client::write_range_retrying", "smb::server::accumulate_range(src)"]);
    assert_ne!(r.earlier_pid, r.later_pid);
}

/// Disjoint tiles need no edge at all: the detector's footprints are
/// range-precise, so an un-synchronized accumulate of tile B while tile A
/// is being written is not a conflict.
#[test]
fn disjoint_tiles_without_edges_are_race_free() {
    let server = setup(3);

    let to_mixer = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_mixer");
    let to_pusher = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_pusher");

    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        let s = server.clone();
        let (to_mixer, to_pusher) = (to_mixer.clone(), to_pusher.clone());
        sim.spawn("setup", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg = client.create(&ctx, "W_g", 8, None).unwrap();
            let dw = client.create(&ctx, "dW", 8, None).unwrap();
            to_mixer.send(&ctx, (wg, dw));
            to_pusher.send(&ctx, (wg, dw));
        });
    }
    {
        let s = server.clone();
        sim.spawn("mixer", move |ctx| {
            let (_, dw_key) = to_mixer.recv(&ctx);
            let client = SmbClient::new(s, NodeId(1));
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let policy = RetryPolicy::with_seed(45);
            client.write_range_retrying(&ctx, &dw, 0, &[1.0; 4], &policy).unwrap();
        });
    }
    {
        let s = server.clone();
        sim.spawn("pusher", move |ctx| {
            let (wg_key, dw_key) = to_pusher.recv(&ctx);
            let client = SmbClient::new(s, NodeId(2));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let policy = RetryPolicy::with_seed(46);
            // Tile [4, 8) — disjoint from the mixer's [0, 4).
            client.accumulate_range_retrying(&ctx, &dw, &wg, 4, 4, &policy).unwrap();
        });
    }
    // halt_on_race defaults to true: any report would fail sim.run().
    sim.run();
    assert!(det.reports().is_empty());
}

/// The corruption-repair chain (DESIGN.md §5j) under the halting
/// detector: the master seeds W_g, replicates it, and poisons one page; a
/// worker's retrying read detects the bad CRC and repairs the page from
/// the standby (the repair joins the replication stamp, ordering the
/// mirror's plain write before the repair's source read, and the install
/// itself is an engine-serialized rmw); a third client plain-writes the
/// repaired segment only after the worker's channel notification. Every
/// conflicting pair is ordered — the run must stay silent.
#[test]
fn repair_chain_with_client_edges_is_race_free() {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let rdma = RdmaFabric::new(Fabric::new(spec));
    let cfg = SmbServerConfig { page_elems: 4, ..SmbServerConfig::default() };
    let pair = SmbPair::new(rdma.clone(), cfg).unwrap();

    let to_worker = SimChannel::<ShmKey>::new("key_to_worker");
    let to_writer = SimChannel::<ShmKey>::new("key_to_writer");
    let repaired = SimChannel::<()>::new("repaired");
    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        let p = pair.clone();
        let (to_worker, to_writer) = (to_worker.clone(), to_writer.clone());
        sim.spawn("master", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let key = client.create(&ctx, "W_g", 8, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0; 8]).unwrap();
            p.replicate(&ctx).unwrap();
            p.primary().inject_bit_flip(key, 1, 3).unwrap();
            assert_eq!(p.primary().scrub_pass(&ctx), 1);
            to_worker.send(&ctx, key);
            to_writer.send(&ctx, key);
        });
    }
    {
        let p = pair.clone();
        let repaired = repaired.clone();
        sim.spawn("worker", move |ctx| {
            let key = to_worker.recv(&ctx);
            let client = SmbClient::with_failover(p.clone(), NodeId(1));
            let buf = client.alloc(&ctx, key).unwrap();
            let policy = RetryPolicy::with_seed(53);
            let mut out = [0.0f32; 8];
            client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
            assert_eq!(out, [1.0; 8], "the repaired read must return the mirrored bytes");
            assert_eq!(p.repairs_completed(), 1);
            let fs = client.fault_stats();
            assert_eq!((fs.corruptions_detected, fs.corruptions_repaired), (1, 1));
            repaired.send(&ctx, ());
        });
    }
    {
        let p = pair.clone();
        sim.spawn("writer", move |ctx| {
            let key = to_writer.recv(&ctx);
            // The repair's page install is an engine-serialized rmw; this
            // plain write needs (and gets) the repaired→write edge.
            repaired.recv(&ctx);
            let client = SmbClient::with_failover(p, NodeId(0));
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[2.0; 8]).unwrap();
            let mut out = [0.0f32; 8];
            client.read(&ctx, &buf, &mut out).unwrap();
            assert_eq!(out, [2.0; 8]);
        });
    }
    // halt_on_race defaults to true: any report would fail sim.run().
    sim.run();
    assert!(det.reports().is_empty());
    assert_eq!(pair.repairs_completed(), 1);
}

/// Seeded missing-edge companion: a rogue client plain-writes the segment
/// while a repair daemon re-installs its poisoned page, with no channel
/// edge between them. The install is recorded as an engine-serialized rmw
/// at `smb::replica::repair`, so the concurrent plain write is exactly one
/// race, naming the repair site.
#[test]
fn seeded_plain_write_concurrent_with_repair_is_caught() {
    use shmcaffe_simnet::SimTime;
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let rdma = RdmaFabric::new(Fabric::new(spec));
    let cfg = SmbServerConfig { page_elems: 4, ..SmbServerConfig::default() };
    let pair = SmbPair::new(rdma.clone(), cfg).unwrap();

    let to_daemon = SimChannel::<ShmKey>::new("key_to_daemon");
    let to_rogue = SimChannel::<ShmKey>::new("key_to_rogue");
    let mut sim = Simulation::new();
    let det = sim.race_detector();
    det.set_halt_on_race(false);
    {
        let p = pair.clone();
        let (to_daemon, to_rogue) = (to_daemon.clone(), to_rogue.clone());
        sim.spawn("master", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let key = client.create(&ctx, "W_g", 8, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0; 8]).unwrap();
            p.replicate(&ctx).unwrap();
            p.primary().inject_bit_flip(key, 1, 3).unwrap();
            assert_eq!(p.primary().scrub_pass(&ctx), 1);
            to_daemon.send(&ctx, key);
            to_rogue.send(&ctx, key);
        });
    }
    {
        let p = pair.clone();
        sim.spawn("repair_daemon", move |ctx| {
            let key = to_daemon.recv(&ctx);
            p.repair_page(&ctx, key, 0).unwrap();
        });
    }
    {
        let p = pair.clone();
        sim.spawn("rogue", move |ctx| {
            let key = to_rogue.recv(&ctx);
            // Wait in sim time only — deliberately no channel from the
            // daemon, so the repair's install and this plain write are
            // concurrent in vector-clock terms.
            ctx.sleep_until(SimTime::from_millis(50));
            let client = SmbClient::with_failover(p, NodeId(1));
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[3.0; 8]).unwrap();
        });
    }
    sim.run();

    let reports = det.reports();
    assert_eq!(reports.len(), 1, "exactly one race expected, got {reports:#?}");
    let r = &reports[0];
    let mut sites = [r.earlier_site, r.later_site];
    sites.sort_unstable();
    assert_eq!(sites, ["smb::client::write", "smb::replica::repair"]);
    assert_ne!(r.earlier_pid, r.later_pid);
}

/// Two engine-serialized accumulates from unsynchronized workers are
/// atomic read-modify-writes, not a race (paper T.A3: the DRAM bus
/// processes accumulate requests exclusively).
#[test]
fn concurrent_accumulates_are_not_reported() {
    let server = setup(3);

    let to_a = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_a");
    let to_b = SimChannel::<(ShmKey, ShmKey)>::new("keys_to_b");

    let mut sim = Simulation::new();
    let det = sim.race_detector();
    {
        let s = server.clone();
        let (to_a, to_b) = (to_a.clone(), to_b.clone());
        sim.spawn("setup", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg = client.create(&ctx, "W_g", 8, None).unwrap();
            let dw_a = client.create(&ctx, "dW_a", 8, None).unwrap();
            let dw_b = client.create(&ctx, "dW_b", 8, None).unwrap();
            to_a.send(&ctx, (wg, dw_a));
            to_b.send(&ctx, (wg, dw_b));
        });
    }
    for (name, node, ch) in [("worker_a", 1, to_a.clone()), ("worker_b", 2, to_b.clone())] {
        let s = server.clone();
        sim.spawn(name, move |ctx| {
            let (wg_key, dw_key) = ch.recv(&ctx);
            let client = SmbClient::new(s, NodeId(node));
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            client.write(&ctx, &dw, &[0.25; 8]).unwrap();
            client.accumulate(&ctx, &dw, &wg).unwrap();
        });
    }
    sim.run();
    assert!(det.reports().is_empty());
}
