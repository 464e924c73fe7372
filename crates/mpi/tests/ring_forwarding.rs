//! The forwarding ring all-reduce (`Comm::allreduce_wire`) against a ring
//! that copies every chunk into a fresh payload at every step, kept here
//! as the oracle: over 1–9 ranks and 0–40 elements (fewer elements than
//! ranks, and counts no rank count divides, included), every rank must
//! return the same bits at the same virtual instant. The inputs mix ±0.0,
//! ±inf, subnormals and ordinary values, so inf − inf makes NaNs too;
//! those compare only as NaN, since Rust does not fix NaN payloads.

use parking_lot::Mutex;
use shmcaffe_mpi::{Comm, MpiData, MpiWorld, Tag};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
use shmcaffe_simnet::{SimContext, Simulation};
use std::sync::Arc;

/// Modelled wire size: no rank count divides it, so chunk sizes truncate.
const WIRE: u64 = 10_000_019;

/// The oracle's own tags, apart from the collectives' internal ones.
const TAG_RS: Tag = 41;
const TAG_AG: Tag = 42;

/// The copy-per-step ring: each step copies its chunk of `data` into a
/// new payload and sums (`*d += v`) or copies each received chunk into
/// `data`.
fn copy_per_step_ring(
    comm: &mut Comm,
    ctx: &SimContext,
    mut data: Vec<f32>,
    wire_bytes: u64,
) -> Vec<f32> {
    let size = comm.size();
    if size == 1 {
        return data;
    }
    let rank = comm.rank();
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let n = data.len();
    let starts: Vec<usize> = (0..=size).map(|c| c * n / size).collect();
    let chunk_wire = wire_bytes / size as u64;
    for step in 0..size - 1 {
        let send_chunk = (rank + size - step) % size;
        let recv_chunk = (rank + size - step - 1) % size;
        let payload = data[starts[send_chunk]..starts[send_chunk + 1]].to_vec();
        comm.send_wire(ctx, next, TAG_RS, MpiData::F32s(payload), chunk_wire);
        let (_, incoming) = comm.recv_f32s(ctx, Some(prev), TAG_RS);
        let dst = &mut data[starts[recv_chunk]..starts[recv_chunk + 1]];
        assert_eq!(incoming.len(), dst.len(), "ring chunk mismatch");
        for (d, v) in dst.iter_mut().zip(incoming.iter()) {
            *d += v;
        }
    }
    for step in 0..size - 1 {
        let send_chunk = (rank + 1 + size - step) % size;
        let recv_chunk = (rank + size - step) % size;
        let payload = data[starts[send_chunk]..starts[send_chunk + 1]].to_vec();
        comm.send_wire(ctx, next, TAG_AG, MpiData::F32s(payload), chunk_wire);
        let (_, incoming) = comm.recv_f32s(ctx, Some(prev), TAG_AG);
        data[starts[recv_chunk]..starts[recv_chunk + 1]].copy_from_slice(&incoming);
    }
    data
}

fn forwarding_ring(comm: &mut Comm, ctx: &SimContext, data: Vec<f32>, wire: u64) -> Vec<f32> {
    comm.allreduce_wire(ctx, data, wire)
}

type Ring = fn(&mut Comm, &SimContext, Vec<f32>, u64) -> Vec<f32>;

/// Element `i` of `rank`'s contribution for a vector of `len`.
fn value(rank: usize, i: usize, len: usize) -> f32 {
    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 8.0,
        f32::from_bits(1),
        1.5,
        -2.25,
        3.0e38,
    ];
    let k = rank * 7 + i * 3 + len;
    if k.is_multiple_of(3) {
        (k as f32 - 20.0) * 0.375
    } else {
        SPECIAL[k % SPECIAL.len()]
    }
}

/// Every rank's result and the virtual instant, in ns, it returned at.
fn run(ring: Ring, ranks: usize, len: usize) -> Vec<(Vec<f32>, u64)> {
    let world = MpiWorld::new(Fabric::new(ClusterSpec::paper_testbed(ranks.div_ceil(4))), ranks);
    let out = Arc::new(Mutex::new(vec![(Vec::new(), 0); ranks]));
    let mut sim = Simulation::new();
    for rank in 0..ranks {
        let mut comm = world.comm(rank);
        let out = Arc::clone(&out);
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let mine = (0..len).map(|i| value(rank, i, len)).collect();
            let sum = ring(&mut comm, &ctx, mine, WIRE);
            out.lock()[rank] = (sum, ctx.now().as_nanos());
        });
    }
    sim.run();
    let result = out.lock().clone();
    result
}

#[test]
fn forwarding_ring_matches_the_copy_per_step_ring_bit_for_bit() {
    let mut nans = 0;
    for ranks in 1..=9 {
        for len in 0..=40 {
            let want = run(copy_per_step_ring, ranks, len);
            let got = run(forwarding_ring, ranks, len);
            for (rank, ((w, w_at), (g, g_at))) in want.iter().zip(&got).enumerate() {
                let at = format!("ranks={ranks} len={len} rank={rank}");
                assert_eq!(g_at, w_at, "{at}: returned at another virtual instant");
                assert_eq!(g.len(), len, "{at}");
                for (i, (a, b)) in g.iter().zip(w).enumerate() {
                    if b.is_nan() {
                        assert!(a.is_nan(), "{at} [{i}]: {a} where the oracle has NaN");
                        nans += 1;
                    } else {
                        assert_eq!(a.to_bits(), b.to_bits(), "{at} [{i}]: {a:e} vs {b:e}");
                    }
                }
            }
        }
    }
    assert!(nans > 0, "the inputs must make inf − inf somewhere");
}
