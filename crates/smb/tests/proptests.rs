//! Property tests of the Soft Memory Box: accumulate order-independence,
//! read-after-write, and retry-policy determinism/deadline bounds.
//! (Sharded/unsharded equivalence is a property of the exchanger's lanes:
//! `crates/shmcaffe/tests/exchange_equivalence.rs`.)

use parking_lot::Mutex;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, Simulation};
use shmcaffe_smb::{
    RetryPolicy, ShmKey, SmbClient, SmbServer, BACKOFF_BASE, BACKOFF_FACTOR, BACKOFF_JITTER,
    MAX_BACKOFF,
};
use std::sync::Arc;

fn server(nodes: usize) -> SmbServer {
    SmbServer::new(RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(nodes)))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The final global buffer equals initial + Σ increments regardless of
    /// how the accumulating workers interleave (staggered by arbitrary
    /// delays).
    #[test]
    fn accumulate_is_order_independent(
        increments in pvec(pvec(-10.0f32..10.0, 8), 1..6),
        delays in pvec(0u64..20, 6),
    ) {
        let n_workers = increments.len();
        let srv = server(n_workers.div_ceil(4).max(1));
        let expected: Vec<f32> = (0..8)
            .map(|i| increments.iter().map(|w| w[i]).sum())
            .collect();
        let key_ch: SimChannel<ShmKey> = SimChannel::new("k");
        let done: SimChannel<()> = SimChannel::new("d");
        let result: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));

        let mut sim = Simulation::new();
        for (rank, inc) in increments.clone().into_iter().enumerate() {
            let srv = srv.clone();
            let key_ch = key_ch.clone();
            let done = done.clone();
            let result = Arc::clone(&result);
            let delay = delays[rank % delays.len()];
            sim.spawn(&format!("w{rank}"), move |ctx| {
                let client = SmbClient::new(srv, NodeId(rank / 4));
                let key = if rank == 0 {
                    let key = client.create(&ctx, "wg", 8, None).unwrap();
                    for _ in 1..n_workers {
                        key_ch.send(&ctx, key);
                    }
                    key
                } else {
                    key_ch.recv(&ctx)
                };
                let wg = client.alloc(&ctx, key).unwrap();
                ctx.sleep(SimDuration::from_millis(delay));
                let dw_key = client.create(&ctx, &format!("dw{rank}"), 8, None).unwrap();
                let dw = client.alloc(&ctx, dw_key).unwrap();
                client.write(&ctx, &dw, &inc).unwrap();
                client.accumulate(&ctx, &dw, &wg).unwrap();
                if rank == 0 {
                    for _ in 1..n_workers {
                        done.recv(&ctx);
                    }
                    let mut out = vec![0.0f32; 8];
                    client.read(&ctx, &wg, &mut out).unwrap();
                    *result.lock() = out;
                } else {
                    done.send(&ctx, ());
                }
            });
        }
        sim.run();
        let got = result.lock().clone();
        for (a, b) in got.iter().zip(expected.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    /// Read-after-write returns exactly what was written, for any payload.
    #[test]
    fn read_after_write(data in pvec(-1e6f32..1e6, 1..64)) {
        let srv = server(1);
        let n = data.len();
        let result: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&result);
        let mut sim = Simulation::new();
        let payload = data.clone();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(srv, NodeId(0));
            let key = client.create(&ctx, "b", n, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &payload).unwrap();
            let mut out = vec![0.0f32; n];
            client.read(&ctx, &buf, &mut out).unwrap();
            *r2.lock() = out;
        });
        sim.run();
        prop_assert_eq!(result.lock().clone(), data);
    }

    /// The cumulative backoff of any retry schedule never exceeds the
    /// policy's deadline, no single backoff exceeds the per-attempt cap,
    /// and the schedule never plans more retries than `max_attempts - 1`.
    #[test]
    fn retry_schedule_is_bounded_by_deadline(
        seed in 0u64..1_000_000_000,
        max_attempts in 1u32..20,
        deadline_us in 1u64..200_000,
    ) {
        let deadline = SimDuration::from_micros(deadline_us);
        let schedule = RetryPolicy { max_attempts, deadline, seed }.schedule();
        prop_assert!(schedule.len() < max_attempts.max(1) as usize);
        let total: SimDuration = schedule.iter().copied().sum();
        prop_assert!(total <= deadline, "{} > {}", total, deadline);
        for b in &schedule {
            prop_assert!(*b <= MAX_BACKOFF);
        }
    }

    /// Jitter only ever shrinks a backoff, and by a bounded amount: every
    /// jittered backoff lands in `[nominal * (1 - BACKOFF_JITTER), nominal]`
    /// of the un-jittered exponential curve, so de-synchronising the fleet
    /// can never push a retry *later* than the nominal schedule, and never
    /// earlier than the advertised lower bound — whatever the policy's
    /// attempt budget and deadline.
    #[test]
    fn retry_jitter_is_bounded_below(
        seed in 0u64..1_000_000_000,
        attempt in 1u32..24,
        max_attempts in 1u32..20,
        deadline_us in 1u64..200_000,
    ) {
        let deadline = SimDuration::from_micros(deadline_us);
        let policy = RetryPolicy { max_attempts, deadline, seed };
        let growth = BACKOFF_FACTOR.powi(attempt as i32 - 1);
        let nominal = BACKOFF_BASE.mul_f64(growth).min(MAX_BACKOFF);
        let b = policy.backoff(attempt);
        prop_assert!(b <= nominal, "{} inflated past nominal {}", b, nominal);
        let floor = nominal.mul_f64(1.0 - BACKOFF_JITTER);
        prop_assert!(b >= floor, "{} under floor {}", b, floor);
    }

    /// Identical seeds yield bit-identical retry schedules; the jitter is
    /// a pure function of (seed, attempt).
    #[test]
    fn retry_schedule_is_deterministic_in_the_seed(
        seed in 0u64..1_000_000_000,
        max_attempts in 2u32..20,
    ) {
        let make = || RetryPolicy { max_attempts, ..RetryPolicy::with_seed(seed) };
        prop_assert_eq!(make().schedule(), make().schedule());
        for attempt in 1..max_attempts {
            prop_assert_eq!(make().backoff(attempt), make().backoff(attempt));
        }
    }
}
