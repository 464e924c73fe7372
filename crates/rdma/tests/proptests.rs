//! Property tests for the RDMA layer: region isolation, bounds and
//! offset-window correctness under arbitrary access patterns.

use parking_lot::Mutex;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shmcaffe_rdma::{RdmaError, RdmaFabric};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::Simulation;
use std::sync::Arc;

fn fabric() -> RdmaFabric {
    RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writes at arbitrary offsets land exactly where addressed and do not
    /// disturb the rest of the region.
    #[test]
    fn offset_writes_are_isolated(
        region_len in 1usize..64,
        writes in pvec((0usize..64, pvec(-100.0f32..100.0, 1..16)), 0..8),
    ) {
        let rdma = fabric();
        let mr = rdma.register(NodeId(1), region_len).unwrap();
        let mut model = vec![0.0f32; region_len];
        let result: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&result);
        let rd = rdma.clone();
        let writes2 = writes.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            for (offset, data) in &writes2 {
                let _ = rd.write(&ctx, NodeId(0), &mr, *offset, data);
            }
            let mut out = vec![0.0f32; region_len];
            rd.read(&ctx, NodeId(0), &mr, 0, &mut out).unwrap();
            *r2.lock() = out;
        });
        sim.run();
        // Replay the same writes on a plain vector, skipping out-of-bounds
        // ones exactly as the RDMA layer rejects them.
        for (offset, data) in &writes {
            if offset + data.len() <= region_len {
                model[*offset..offset + data.len()].copy_from_slice(data);
            }
        }
        prop_assert_eq!(result.lock().clone(), model);
    }

    /// Every out-of-bounds window is rejected with OutOfBounds; every
    /// in-bounds window round-trips.
    #[test]
    fn bounds_are_enforced(region_len in 1usize..32, offset in 0usize..40, len in 1usize..40) {
        let rdma = fabric();
        let mr = rdma.register(NodeId(0), region_len).unwrap();
        let ok: Arc<Mutex<Option<Result<(), RdmaError>>>> = Arc::new(Mutex::new(None));
        let ok2 = Arc::clone(&ok);
        let rd = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let data = vec![1.0f32; len];
            let r = rd.write(&ctx, NodeId(1), &mr, offset, &data).map(|_| ());
            *ok2.lock() = Some(r);
        });
        sim.run();
        let got = ok.lock().clone().expect("ran");
        if offset + len <= region_len {
            prop_assert!(got.is_ok());
        } else {
            let oob = matches!(got, Err(RdmaError::OutOfBounds { .. }));
            prop_assert!(oob);
        }
    }

    /// A window starting within 64 elements of `usize::MAX` is out of
    /// bounds in both directions — also when `offset + len` overflows and
    /// would wrap back inside the region — and charges no time.
    #[test]
    fn windows_up_to_usize_max_are_rejected(
        region_len in 1usize..32,
        back in 0usize..64,
        len in 1usize..80,
    ) {
        let rdma = fabric();
        let mr = rdma.register(NodeId(0), region_len).unwrap();
        let offset = usize::MAX - back;
        let seen: Arc<Mutex<Vec<(RdmaError, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let rd = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let mut buf = vec![1.0f32; len];
            let w = rd.write(&ctx, NodeId(1), &mr, offset, &buf).unwrap_err();
            let r = rd.read(&ctx, NodeId(1), &mr, offset, &mut buf).unwrap_err();
            *seen2.lock() = vec![(w, ctx.now().as_nanos()), (r, ctx.now().as_nanos())];
        });
        sim.run();
        for (err, at) in seen.lock().iter() {
            let oob =
                matches!(err, RdmaError::OutOfBounds { capacity, .. } if *capacity == region_len);
            prop_assert!(oob, "{:?}", err);
            prop_assert_eq!(*at, 0);
        }
    }

    /// Distinct regions never alias, whatever the allocation order.
    #[test]
    fn regions_do_not_alias(lens in pvec(1usize..16, 2..6), seed in 0u32..100) {
        let rdma = fabric();
        let regions: Vec<_> = lens
            .iter()
            .map(|&l| rdma.register(NodeId(1), l).unwrap())
            .collect();
        let rd = rdma.clone();
        let regions2 = regions.clone();
        let all_ok: Arc<Mutex<bool>> = Arc::new(Mutex::new(false));
        let ok2 = Arc::clone(&all_ok);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            // Fill region k with the value k+seed, then verify all.
            for (k, mr) in regions2.iter().enumerate() {
                let v = (k as f32) + (seed as f32) * 0.5;
                let data = vec![v; mr.len];
                rd.write(&ctx, NodeId(0), mr, 0, &data).unwrap();
            }
            let mut good = true;
            for (k, mr) in regions2.iter().enumerate() {
                let v = (k as f32) + (seed as f32) * 0.5;
                let mut out = vec![0.0f32; mr.len];
                rd.read(&ctx, NodeId(0), mr, 0, &mut out).unwrap();
                good &= out.iter().all(|&x| x == v);
            }
            *ok2.lock() = good;
        });
        sim.run();
        prop_assert!(*all_ok.lock());
    }
}
