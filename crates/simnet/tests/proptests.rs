//! Property tests of the virtual-time engine: causal ordering, bandwidth
//! conservation, and determinism under arbitrary process programs.

use parking_lot::Mutex;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::{SimDuration, Simulation};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Events observed by any single process are monotone in virtual time,
    /// and the simulation end equals the max process clock, for arbitrary
    /// sleep programs.
    #[test]
    fn per_process_time_is_monotone(programs in pvec(pvec(0u64..50, 1..20), 1..6)) {
        let log: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let mut expected_end = 0u64;
        for (pid, prog) in programs.iter().enumerate() {
            expected_end = expected_end.max(prog.iter().sum::<u64>() * 1000);
            let prog = prog.clone();
            let log = Arc::clone(&log);
            sim.spawn(&format!("p{pid}"), move |ctx| {
                for d in prog {
                    ctx.sleep(SimDuration::from_micros(d));
                    log.lock().push((pid, ctx.now().as_nanos()));
                }
            });
        }
        let end = sim.run();
        prop_assert_eq!(end.as_nanos(), expected_end);
        // Per process, timestamps never decrease; globally, the trace is
        // sorted (the scheduler always runs the earliest process).
        let trace = log.lock().clone();
        let mut last_global = 0u64;
        let mut last_per: std::collections::BTreeMap<usize, u64> = Default::default();
        for (pid, t) in trace {
            prop_assert!(t >= last_global, "global order violated");
            last_global = t;
            let e = last_per.entry(pid).or_insert(0);
            prop_assert!(t >= *e);
            *e = t;
        }
    }

    /// A shared link never moves more bytes per second than its bandwidth:
    /// total service time ≥ total bytes / bandwidth (exact for FIFO).
    #[test]
    fn link_conserves_bandwidth(
        transfers in pvec((1u64..50_000_000, 0u64..10), 1..12),
        bw_gbps in 1u64..20,
    ) {
        let bw = bw_gbps as f64 * 1e9;
        let link = BandwidthResource::new("l", LinkModel::new(bw, SimDuration::ZERO));
        let mut sim = Simulation::new();
        let total_bytes: u64 = transfers.iter().map(|(b, _)| *b).sum();
        for (i, (bytes, delay)) in transfers.into_iter().enumerate() {
            let l = link.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_micros(delay));
                l.transfer(&ctx, bytes);
            });
        }
        let end = sim.run();
        prop_assert_eq!(link.total_bytes(), total_bytes);
        let min_time = total_bytes as f64 / bw;
        prop_assert!(end.as_secs_f64() >= min_time * 0.999,
            "finished impossibly fast: {} < {}", end.as_secs_f64(), min_time);
        // Busy time is exactly the service integral.
        prop_assert!((link.total_busy().as_secs_f64() - min_time).abs() < 1e-6);
    }

    /// Channels deliver every message exactly once, FIFO per sender, for
    /// arbitrary message counts and pacing.
    #[test]
    fn channels_deliver_exactly_once(counts in pvec(1usize..30, 1..4), pace in 0u64..5) {
        let n_senders = counts.len();
        let total: usize = counts.iter().sum();
        let ch: SimChannel<(usize, usize)> = SimChannel::new("t");
        let got: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (s, count) in counts.clone().into_iter().enumerate() {
            let ch = ch.clone();
            sim.spawn(&format!("tx{s}"), move |ctx| {
                for i in 0..count {
                    ch.send(&ctx, (s, i));
                    ctx.sleep(SimDuration::from_micros(pace + 1));
                }
            });
        }
        {
            let ch = ch.clone();
            let got = Arc::clone(&got);
            sim.spawn("rx", move |ctx| {
                for _ in 0..total {
                    let msg = ch.recv(&ctx);
                    got.lock().push(msg);
                }
            });
        }
        sim.run();
        let msgs = got.lock().clone();
        prop_assert_eq!(msgs.len(), total);
        // FIFO per sender.
        for s in 0..n_senders {
            let seq: Vec<usize> = msgs.iter().filter(|(x, _)| *x == s).map(|(_, i)| *i).collect();
            prop_assert_eq!(seq.clone(), (0..seq.len()).collect::<Vec<_>>());
        }
    }

    /// The whole engine is deterministic: identical programs produce
    /// identical event traces.
    #[test]
    fn engine_is_deterministic(programs in pvec(pvec(0u64..30, 1..10), 2..5)) {
        let run = |programs: &[Vec<u64>]| -> Vec<(usize, u64)> {
            let log: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
            let link = BandwidthResource::new("l", LinkModel::new(1e9, SimDuration::ZERO));
            let mut sim = Simulation::new();
            for (pid, prog) in programs.iter().enumerate() {
                let prog = prog.clone();
                let log = Arc::clone(&log);
                let l = link.clone();
                sim.spawn(&format!("p{pid}"), move |ctx| {
                    for d in prog {
                        l.transfer(&ctx, d * 1000 + 1);
                        log.lock().push((pid, ctx.now().as_nanos()));
                    }
                });
            }
            sim.run();
            let out = log.lock().clone();
            out
        };
        prop_assert_eq!(run(&programs), run(&programs));
    }
}
