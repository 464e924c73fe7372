//! Integration tests of the full SMB protocol stack: the Fig. 2 handshake
//! at scale, buffer lifecycle, progress board, and fabric accounting.

use parking_lot::Mutex;
use std::sync::Arc;

use shmcaffe_repro::mpi::{MpiData, MpiWorld};
use shmcaffe_repro::rdma::RdmaFabric;
use shmcaffe_repro::simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_repro::simnet::Simulation;
use shmcaffe_repro::smb::progress::ProgressBoard;
use shmcaffe_repro::smb::{ShmKey, SmbClient, SmbServer};

#[test]
fn sixteen_worker_handshake_and_accumulate() {
    const N: usize = 16;
    const DIM: usize = 32;
    let fabric = Fabric::new(ClusterSpec::paper_testbed(4));
    let rdma = RdmaFabric::new(fabric.clone());
    let server = SmbServer::new(rdma).unwrap();
    let mpi = MpiWorld::new(fabric.clone(), N);
    let final_wg: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Simulation::new();
    for rank in 0..N {
        let server = server.clone();
        let mut comm = mpi.comm(rank);
        let node = mpi.node_of(rank);
        let final_wg = Arc::clone(&final_wg);
        sim.spawn(&format!("w{rank}"), move |ctx| {
            let client = SmbClient::new(server, node);
            // Fig. 2: master creates, broadcasts the SHM key over MPI.
            let key = if rank == 0 {
                let key = client.create(&ctx, "wg", DIM, None).unwrap();
                comm.broadcast(&ctx, 0, Some(MpiData::U64s(vec![key.0])));
                key
            } else {
                ShmKey(comm.broadcast(&ctx, 0, None).into_u64s()[0])
            };
            let wg = client.alloc(&ctx, key).unwrap();

            // Every worker accumulates a one-hot-ish contribution.
            let dw_key = client.create(&ctx, &format!("dw{rank}"), DIM, None).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            let mine: Vec<f32> =
                (0..DIM).map(|i| if i == rank % DIM { 1.0 } else { 0.5 }).collect();
            client.write(&ctx, &dw, &mine).unwrap();
            client.accumulate(&ctx, &dw, &wg).unwrap();

            comm.barrier(&ctx);
            if rank == 0 {
                let mut out = vec![0.0f32; DIM];
                client.read(&ctx, &wg, &mut out).unwrap();
                *final_wg.lock() = out;
            }
        });
    }
    sim.run();
    let wg = final_wg.lock().clone();
    // Each of DIM slots: 16 contributions of 0.5 plus one extra 0.5 for
    // the matching rank (16 ranks over 32 slots: slots 0..16 get +0.5).
    for (i, &v) in wg.iter().enumerate() {
        let expected = 16.0 * 0.5 + if i < N { 0.5 } else { 0.0 };
        assert!((v - expected).abs() < 1e-4, "slot {i}: {v} vs {expected}");
    }
    assert_eq!(server.segment_count(), N + 1);
}

#[test]
fn buffer_lifecycle_and_version_tracking() {
    let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
    let server = SmbServer::new(rdma).unwrap();
    let s2 = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s2.clone(), NodeId(0));
        let key = client.create(&ctx, "buf", 8, None).unwrap();
        assert_eq!(s2.lookup("buf"), Some(key));
        let buf = client.alloc(&ctx, key).unwrap();
        assert_eq!(s2.version(key).unwrap(), 0);
        client.write(&ctx, &buf, &[1.0; 8]).unwrap();
        client.write(&ctx, &buf, &[2.0; 8]).unwrap();
        assert_eq!(s2.version(key).unwrap(), 2);

        client.write(&ctx, &buf, &[3.0; 8]).unwrap();
        assert_eq!(s2.version(key).unwrap(), 3);

        client.free(&ctx, buf).unwrap();
        assert_eq!(s2.lookup("buf"), None);
        assert!(s2.version(key).is_err());
        // The name can be reused after free.
        let key2 = client.create(&ctx, "buf", 4, None).unwrap();
        assert_ne!(key, key2);
    });
    sim.run();
    assert_eq!(server.segment_count(), 1);
}

#[test]
fn progress_board_spans_nodes() {
    const N: usize = 8;
    let fabric = Fabric::new(ClusterSpec::paper_testbed(2));
    let rdma = RdmaFabric::new(fabric);
    let server = SmbServer::new(rdma).unwrap();
    let mpi = MpiWorld::new(server.rdma().fabric().clone(), N);
    let observed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Simulation::new();
    for rank in 0..N {
        let server = server.clone();
        let mut comm = mpi.comm(rank);
        let node = mpi.node_of(rank);
        let observed = Arc::clone(&observed);
        sim.spawn(&format!("w{rank}"), move |ctx| {
            let client = SmbClient::new(server, node);
            let key = if rank == 0 {
                let (_b, key) = ProgressBoard::create(&client, &ctx, "ctrl", N).unwrap();
                comm.broadcast(&ctx, 0, Some(MpiData::U64s(vec![key.0])));
                key
            } else {
                ShmKey(comm.broadcast(&ctx, 0, None).into_u64s()[0])
            };
            let board = ProgressBoard::attach(&client, &ctx, key, N).unwrap();
            board.publish(&client, &ctx, rank, (rank as u64 + 1) * 10, false).unwrap();
            comm.barrier(&ctx);
            if rank == 0 {
                let snap = board.snapshot(&client, &ctx).unwrap();
                *observed.lock() = snap.workers.iter().map(|w| w.iterations).collect();
            }
        });
    }
    sim.run();
    let iters = observed.lock().clone();
    assert_eq!(iters, vec![10, 20, 30, 40, 50, 60, 70, 80]);
}

#[test]
fn fabric_accounting_tracks_smb_traffic() {
    let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
    let rdma = RdmaFabric::new(fabric.clone());
    let server = SmbServer::new(rdma).unwrap();
    let mem_node = server.node();
    let s2 = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s2, NodeId(0));
        let key = client.create(&ctx, "b", 16, Some(1_000_000)).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &[0.5; 16]).unwrap();
        let mut out = [0.0f32; 16];
        client.read(&ctx, &buf, &mut out).unwrap();
    });
    sim.run();
    // One logical MB each way (+4.5% protocol, float-rounded) through the
    // worker's HCA.
    let tx = fabric.hca_tx(NodeId(0)).total_bytes();
    let rx = fabric.hca_rx(NodeId(0)).total_bytes();
    assert!((tx as i64 - 1_045_000).abs() <= 1, "tx {tx}");
    assert!((rx as i64 - 1_045_000).abs() <= 1, "rx {rx}");
    // The memory server's DRAM bus saw both transfers (within rounding).
    assert!(server.memory_bytes() >= 2 * 1_044_998, "{}", server.memory_bytes());
    let _ = mem_node;
}
