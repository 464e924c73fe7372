//! Property tests: collective semantics for arbitrary world shapes.

use parking_lot::Mutex;
use proptest::prelude::*;
use shmcaffe_mpi::{Comm, MpiData, MpiWorld};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
use shmcaffe_simnet::{SimContext, Simulation};
use std::sync::Arc;

fn run_all_ranks<F>(ranks: usize, f: F) -> Vec<Vec<f32>>
where
    F: Fn(&SimContext, &mut Comm) -> Vec<f32> + Send + Sync + 'static,
{
    let nodes = ranks.div_ceil(4).max(1);
    let world = MpiWorld::new(Fabric::new(ClusterSpec::paper_testbed(nodes)), ranks);
    let results: Arc<Mutex<Vec<Vec<f32>>>> = Arc::new(Mutex::new(vec![Vec::new(); ranks]));
    let f = Arc::new(f);
    let mut sim = Simulation::new();
    for rank in 0..ranks {
        let mut comm = world.comm(rank);
        let results = Arc::clone(&results);
        let f = Arc::clone(&f);
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let out = f(&ctx, &mut comm);
            results.lock()[rank] = out;
        });
    }
    sim.run();
    let out = results.lock().clone();
    out
}

/// Deterministic per-(rank, index) value so the expected reduction is
/// computable without sharing state.
fn value(rank: usize, i: usize, seed: u32) -> f32 {
    let x = (rank as u32)
        .wrapping_mul(2654435761)
        .wrapping_add(i as u32)
        .wrapping_add(seed.wrapping_mul(97));
    ((x >> 16) as f32 / 65536.0) - 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ring allreduce equals the element-wise sum for any world size and
    /// vector length (including lengths not divisible by the rank count).
    #[test]
    fn allreduce_equals_sum(ranks in 1usize..9, len in 1usize..40, seed in 0u32..100) {
        let got = run_all_ranks(ranks, move |ctx, comm| {
            let mine: Vec<f32> = (0..len).map(|i| value(comm.rank(), i, seed)).collect();
            comm.allreduce(ctx, mine)
        });
        let expected: Vec<f32> = (0..len)
            .map(|i| (0..ranks).map(|r| value(r, i, seed)).sum())
            .collect();
        for r in &got {
            prop_assert_eq!(r.len(), len);
            for (a, b) in r.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
            }
        }
    }

    /// Broadcast delivers the root's exact payload to every rank, for any
    /// root.
    #[test]
    fn broadcast_from_any_root(ranks in 1usize..9, root in 0usize..9, len in 1usize..20, seed in 0u32..100) {
        let root = root % ranks;
        let got = run_all_ranks(ranks, move |ctx, comm| {
            let payload = (comm.rank() == root)
                .then(|| MpiData::F32s((0..len).map(|i| value(root, i, seed)).collect()));
            comm.broadcast(ctx, root, payload).into_f32s()
        });
        let expected: Vec<f32> = (0..len).map(|i| value(root, i, seed)).collect();
        for r in got {
            prop_assert_eq!(r, expected.clone());
        }
    }

    /// Barrier: nobody leaves before the last arrival.
    #[test]
    fn barrier_waits_for_last(ranks in 2usize..8, stagger_ms in 1u64..20) {
        let got = run_all_ranks(ranks, move |ctx, comm| {
            ctx.sleep(shmcaffe_simnet::SimDuration::from_millis(
                stagger_ms * comm.rank() as u64,
            ));
            comm.barrier(ctx);
            vec![ctx.now().as_millis_f64() as f32]
        });
        let last_arrival = (stagger_ms * (ranks as u64 - 1)) as f32;
        for r in got {
            prop_assert!(r[0] >= last_arrival, "{} < {}", r[0], last_arrival);
        }
    }
}
