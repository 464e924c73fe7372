//! Schedule-space model checking of the SMB control plane with the simnet
//! `schedcheck` explorer (`Simulation::explore`).
//!
//! Certification models: the fence-epoch admission handshake, the
//! promote-vs-late-primary-write interaction, tombstone GC racing a worker
//! rejoin, and the replicated-version rule a fail-over redo rests on. Each
//! explores every tie/wake/delivery ordering within bounds and must come
//! back clean, with DPOR pruning reducing the explored count below the
//! naive one (printed, per the acceptance criteria).
//!
//! Mutation harness: the same models with a seeded bug — a heartbeat
//! missing its happens-before edge to the eviction scan, and a writer that
//! skips the fence admission check — must be *caught* within the same
//! budget, and the recorded `.sched` trace must replay the failure
//! bit-identically.

use std::path::PathBuf;

use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{ExploreBounds, ScheduleTrace, SimDuration, SimTime, Simulation};
use shmcaffe_smb::{SmbClient, SmbPair, SmbServer, SmbServerConfig, TOMBSTONE_HORIZON};

fn sched_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("target tmpdir exists");
    dir
}

/// The models below *deliberately* put conflicting unsynchronized accesses
/// at tied wake times — that is the schedule space being explored. Under
/// `--features race-detect` the simulation's vector-clock detector would
/// (correctly) halt on them, so it collects reports instead of aborting
/// here; the race-detection contract has its own suite in
/// `tests/race_detect.rs`.
fn tolerant(sim: &Simulation) {
    #[cfg(feature = "race-detect")]
    sim.race_detector().set_halt_on_race(false);
    #[cfg(not(feature = "race-detect"))]
    let _ = sim;
}

fn pair_fabric(sim: &Simulation) -> RdmaFabric {
    tolerant(sim);
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    RdmaFabric::new(Fabric::new(spec))
}

fn single_fabric(sim: &Simulation) -> RdmaFabric {
    tolerant(sim);
    RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(2)))
}

/// Fence-epoch admission handshake: epoch-1 writers (two on disjoint
/// segments, one overlapping) race each other and a promoter that takes
/// over once the authority lease lapses. Certified invariants, checked
/// inside the model under *every* explored schedule: the standby only ever
/// serves the replicated snapshot, and after promotion the old epoch is
/// never admitted again. The disjoint writers commute, so DPOR pruning
/// must bring the explored count under the naive one.
#[test]
fn fence_admission_handshake_certifies_clean() {
    let setup = |sim: &mut Simulation| {
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(10),
            ..Default::default()
        };
        let pair = SmbPair::new(pair_fabric(sim), cfg).unwrap();
        {
            let p = pair.clone();
            sim.spawn("boot", move |ctx| {
                let client = SmbClient::with_failover(p.clone(), NodeId(0));
                let wg = client.create(&ctx, "wg", 4, None).unwrap();
                let buf = client.alloc(&ctx, wg).unwrap();
                client.write(&ctx, &buf, &[1.0; 4]).unwrap();
                client.create(&ctx, "dw0", 4, None).unwrap();
                client.create(&ctx, "dw1", 4, None).unwrap();
                p.replicate(&ctx).unwrap();
            });
        }
        // Two epoch-1 writers on *disjoint* segments: admitted (the lease
        // is live at 5 ms) and freely commuting — prunable.
        for (i, seg) in ["dw0", "dw1"].iter().enumerate() {
            let p = pair.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.sleep_until(SimTime::from_millis(5));
                let client = SmbClient::with_failover(p, NodeId(0));
                let key = client.server().lookup(seg).unwrap();
                let buf = client.alloc(&ctx, key).unwrap();
                client.write(&ctx, &buf, &[i as f32 + 2.0; 4]).unwrap();
            });
        }
        // A third writer overlapping w0's segment: does not commute, so
        // both orders of that tie are genuinely explored.
        {
            let p = pair.clone();
            sim.spawn("w2", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(5));
                let client = SmbClient::with_failover(p, NodeId(1));
                let key = client.server().lookup("dw0").unwrap();
                let buf = client.alloc(&ctx, key).unwrap();
                client.write(&ctx, &buf, &[9.0; 4]).unwrap();
            });
        }
        {
            let p = pair.clone();
            sim.spawn("promoter", move |ctx| {
                // Blocks until the lease demonstrably lapsed, then fences.
                p.promote(&ctx);
                let wg = p.standby().lookup("wg").unwrap();
                // The standby serves exactly the replicated snapshot: the
                // epoch-1 writers only ever touched the primary.
                let sc = SmbClient::new(p.standby().clone(), NodeId(0));
                let sbuf = sc.alloc(&ctx, wg).unwrap();
                let mut copy = [0.0f32; 4];
                sc.read(&ctx, &sbuf, &mut copy).unwrap();
                assert_eq!(copy, [1.0; 4], "standby must serve the replicated snapshot");
                // The old epoch is fenced out for good.
                assert!(
                    p.admit_mutation(&ctx, wg, 1).is_err(),
                    "epoch 1 must never be admitted after promotion"
                );
            });
        }
        let p = pair;
        sim.set_state_probe(move || p.state_hash());
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(64), setup);
    assert!(report.certified(), "fence admission must certify: {report:?}");
    assert!(report.pruned_independent > 0, "disjoint writers must prune: {report:?}");
    assert!(report.schedules < report.naive_schedules());
    println!(
        "schedcheck fence admission: {} explored / {} naive ({} pruned independent, {} states)",
        report.schedules,
        report.naive_schedules(),
        report.pruned_independent,
        report.distinct_states
    );
}

/// Promote-vs-late-primary-write: a writer that follows the protocol
/// (observe_fence + admit_mutation) ties with the promoter exactly at the
/// authority expiry. In every ordering the admission check rejects — the
/// lease is lapsed, so the primary self-fences even when the writer wins
/// the tie — and the demoted primary's version stays frozen.
#[test]
fn promote_vs_late_primary_write_certifies() {
    let setup = |sim: &mut Simulation| {
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(10),
            ..Default::default()
        };
        let pair = SmbPair::new(pair_fabric(sim), cfg).unwrap();
        {
            let p = pair.clone();
            sim.spawn("boot", move |ctx| {
                let client = SmbClient::new(p.primary().clone(), NodeId(0));
                let wg = client.create(&ctx, "wg", 4, None).unwrap();
                let buf = client.alloc(&ctx, wg).unwrap();
                client.write(&ctx, &buf, &[1.0; 4]).unwrap();
            });
        }
        {
            let p = pair.clone();
            sim.spawn("late_writer", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(10));
                let wg = p.primary().lookup("wg").unwrap();
                let carried = 1; // the epoch this writer still believes in
                if p.admit_mutation(&ctx, wg, carried).is_ok() {
                    let client = SmbClient::new(p.primary().clone(), NodeId(0));
                    let buf = client.alloc(&ctx, wg).unwrap();
                    client.write(&ctx, &buf, &[9.0; 4]).unwrap();
                }
            });
        }
        {
            let p = pair.clone();
            sim.spawn("promoter", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(10));
                p.promote(&ctx);
                let wg = p.primary().lookup("wg").unwrap();
                let frozen = p.primary().version(wg).unwrap();
                ctx.sleep(SimDuration::from_millis(5));
                assert_eq!(
                    p.primary().version(wg).unwrap(),
                    frozen,
                    "a write landed on the demoted primary after the fence"
                );
            });
        }
        let p = pair;
        sim.set_state_probe(move || p.state_hash());
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(64), setup);
    assert!(report.certified(), "promote-vs-late-write must certify: {report:?}");
    assert!(report.schedules >= 2, "both tie orders must be explored: {report:?}");
    println!(
        "schedcheck promote-vs-late-write: {} explored / {} naive",
        report.schedules,
        report.naive_schedules()
    );
}

/// Tombstone GC racing a worker rejoin: the eviction scan that garbage
/// collects an expired tombstone ties with the lapsed owner's
/// `ack_eviction` + re-create. Both orders must converge on the same state
/// (no tombstone, segment re-created) — certified clean, and the state
/// probe confirms the schedules collapse to one distinct terminal state.
#[test]
fn tombstone_gc_vs_rejoin_certifies() {
    // The first scan plants the tombstone at 5 ms; the tie falls 2 ms after
    // it has aged past the horizon.
    let gc_at = SimTime::from_millis(7) + TOMBSTONE_HORIZON;
    let setup = move |sim: &mut Simulation| {
        let cfg =
            SmbServerConfig { lease_timeout: SimDuration::from_millis(2), ..Default::default() };
        let server = SmbServer::with_config(single_fabric(sim), cfg).unwrap();
        {
            let s = server.clone();
            sim.spawn("boot", move |ctx| {
                let client = SmbClient::new(s, NodeId(0));
                client.create_owned(&ctx, "dw", 4, None, 1).unwrap();
            });
        }
        {
            let s = server.clone();
            sim.spawn("evictor", move |ctx| {
                // First scan evicts the silent owner and plants a tombstone.
                ctx.sleep_until(SimTime::from_millis(5));
                assert_eq!(s.evict_stale(&ctx).len(), 1);
                // Second scan ties with the rejoin: it GCs the now-expired
                // tombstone if the ack has not already reaped it.
                ctx.sleep_until(gc_at);
                s.evict_stale(&ctx);
            });
        }
        {
            let s = server.clone();
            sim.spawn("rejoiner", move |ctx| {
                ctx.sleep_until(gc_at);
                // The ack *arrives at the server* exactly when the GC scan
                // wakes — the interesting tie. (Going through the client
                // would add a control round trip and break the tie.)
                s.ack_eviction(&ctx, 1);
                let client = SmbClient::new(s.clone(), NodeId(0));
                client.create_owned(&ctx, "dw", 4, None, 1).unwrap();
            });
        }
        {
            let s = server.clone();
            sim.spawn("check", move |ctx| {
                ctx.sleep_until(gc_at + SimDuration::from_millis(8));
                assert_eq!(s.tombstone_count(), 0, "the tombstone must be reclaimed either way");
                assert!(s.lookup("dw").is_some(), "the rejoined segment must exist");
            });
        }
        let s = server;
        sim.set_state_probe(move || s.state_hash());
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(64), setup);
    assert!(report.certified(), "tombstone GC vs rejoin must certify: {report:?}");
    assert!(report.schedules >= 2, "both tie orders must be explored: {report:?}");
    assert_eq!(report.distinct_states, 1, "orders must converge: {report:?}");
    println!(
        "schedcheck tombstone-gc-vs-rejoin: {} explored / {} naive, {} distinct states",
        report.schedules,
        report.naive_schedules(),
        report.distinct_states
    );
}

/// The fail-over version rule: the standby's `W_g` at promotion holds
/// exactly the folds whose version is at or below
/// `SmbPair::replicated_version` — the invariant an update thread's redo
/// after a fail-over rests on. One fold lands at the lease expiry `E`
/// itself, tied with the replication pass and the promoter (which the
/// pass's renewals may or may not beat); another lands 1 ms before. In
/// every ordering the standby holds the seed plus exactly the folds at or
/// below the recorded version, whether the pass copied `W_g` before the
/// tied fold, after it, or never ran.
#[test]
fn replicated_version_names_exactly_the_folds_the_standby_holds() {
    use shmcaffe_simnet::channel::SimChannel;
    use shmcaffe_smb::RetryPolicy;
    use std::sync::{Arc, Mutex};
    const DW: [f32; 4] = [0.5, 0.25, 0.125, 0.0625];
    let setup = |sim: &mut Simulation| {
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(10),
            ..Default::default()
        };
        let pair = SmbPair::new(pair_fabric(sim), cfg).unwrap();
        // Every fold on the primary, as (version, offset, len).
        let folds: Arc<Mutex<Vec<(u64, usize, usize)>>> = Arc::default();
        let starts: Vec<SimChannel<SimTime>> =
            (0..2).map(|i| SimChannel::new(&format!("start{i}"))).collect();
        let fold = |ctx: &shmcaffe_simnet::SimContext, p: &SmbPair, off: usize, len: usize| {
            let client = SmbClient::new(p.primary().clone(), NodeId(0));
            let wg = client.alloc(ctx, p.primary().lookup("wg").unwrap()).unwrap();
            let dw = client.alloc(ctx, p.primary().lookup("dw").unwrap()).unwrap();
            let policy = RetryPolicy::with_seed(3);
            client.accumulate_range_retrying(ctx, &dw, &wg, off, len, &policy).unwrap()
        };
        {
            let (p, folds, starts) = (pair.clone(), Arc::clone(&folds), starts.clone());
            sim.spawn("boot", move |ctx| {
                let client = SmbClient::new(p.primary().clone(), NodeId(0));
                let wg = client.alloc(&ctx, client.create(&ctx, "wg", 4, None).unwrap()).unwrap();
                let dw = client.alloc(&ctx, client.create(&ctx, "dw", 4, None).unwrap()).unwrap();
                client.write(&ctx, &wg, &[1.0; 4]).unwrap();
                client.write(&ctx, &dw, &DW).unwrap();
                // A fold of the same length on the idle server measures how long
                // one takes.
                ctx.sleep(SimDuration::from_millis(1));
                let t0 = ctx.now();
                let v = fold(&ctx, &p, 2, 2);
                let took = ctx.now() - t0;
                folds.lock().unwrap().push((v, 2, 2));
                p.replicate(&ctx).unwrap();
                // This pass renewed the lease: it lapses at `expiry`, when
                // fold0 lands; fold1 lands 1 ms before.
                let lease = SimDuration::from_millis(10);
                let expiry = ctx.now() + lease;
                starts[0].send(&ctx, ctx.now() + (lease - took));
                starts[1].send(&ctx, ctx.now() + (lease - took - SimDuration::from_millis(1)));
                ctx.sleep_until(expiry);
                // The replicator loop's own rule: no pass once promoted.
                if !p.promoted() {
                    p.replicate(&ctx).unwrap();
                }
            });
        }
        for (i, (off, len)) in [(1usize, 2usize), (0, 2)].into_iter().enumerate() {
            let (p, folds, start) = (pair.clone(), Arc::clone(&folds), starts[i].clone());
            sim.spawn(&format!("fold{i}"), move |ctx| {
                ctx.sleep_until(start.recv(&ctx));
                let v = fold(&ctx, &p, off, len);
                folds.lock().unwrap().push((v, off, len));
            });
        }
        {
            let p = pair.clone();
            sim.spawn("promoter", move |ctx| {
                // Blocks until the lease demonstrably lapsed.
                p.promote(&ctx);
            });
        }
        {
            let (p, folds) = (pair.clone(), Arc::clone(&folds));
            sim.spawn("check", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(100));
                assert!(p.promoted());
                let wg = p.standby().lookup("wg").unwrap();
                let replicated = p.replicated_version(wg);
                let mut expected = [1.0f32; 4];
                let folds = folds.lock().unwrap();
                assert_eq!(folds.len(), 3, "every fold landed on the primary");
                for &(_, off, len) in folds.iter().filter(|f| f.0 <= replicated) {
                    for i in off..off + len {
                        expected[i] += DW[i];
                    }
                }
                let sc = SmbClient::new(p.standby().clone(), NodeId(0));
                let sbuf = sc.alloc(&ctx, wg).unwrap();
                let mut copy = [0.0f32; 4];
                sc.read(&ctx, &sbuf, &mut copy).unwrap();
                assert_eq!(copy, expected, "standby vs folds <= v{replicated}: {folds:?}");
            });
        }
        let p = pair;
        sim.set_state_probe(move || p.state_hash());
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(256), setup);
    assert!(report.certified(), "the version rule must certify: {report:?}");
    assert!(report.schedules >= 2, "the fold/pass/promote ties must be explored: {report:?}");
    assert!(report.distinct_states >= 2, "the orders must reach different states: {report:?}");
    println!(
        "schedcheck replicated version: {} explored / {} naive ({} pruned independent, {} states)",
        report.schedules,
        report.naive_schedules(),
        report.pruned_independent,
        report.distinct_states
    );
}

/// Repair racing a concurrent repair and an accumulate: page 0 of W_g is
/// poisoned, two clients race `repair_page` for it at the same virtual
/// time, and the winner's owner then folds ΔW into the repaired W_g. In
/// every ordering the repair fence keeps the loser's stale replica bytes
/// from landing over the fold: W_g always converges to the repaired-then-
/// folded value, the poison clears, and the standby keeps serving its
/// replicated snapshot.
#[test]
fn repair_vs_concurrent_accumulate_certifies() {
    let setup = |sim: &mut Simulation| {
        let cfg = SmbServerConfig { page_elems: 2, ..Default::default() };
        let pair = SmbPair::new(pair_fabric(sim), cfg).unwrap();
        {
            let p = pair.clone();
            sim.spawn("boot", move |ctx| {
                let client = SmbClient::new(p.primary().clone(), NodeId(0));
                let wg = client.create(&ctx, "wg", 4, None).unwrap();
                let buf = client.alloc(&ctx, wg).unwrap();
                client.write(&ctx, &buf, &[1.0; 4]).unwrap();
                let dw = client.create(&ctx, "dw", 4, None).unwrap();
                let dbuf = client.alloc(&ctx, dw).unwrap();
                client.write(&ctx, &dbuf, &[10.0; 4]).unwrap();
                p.replicate(&ctx).unwrap();
                // Flip a bit inside page 0 and let the scrubber find it.
                p.primary().inject_bit_flip(wg, 0, 3).unwrap();
                assert_eq!(p.primary().scrub_pass(&ctx), 1);
            });
        }
        {
            let p = pair.clone();
            sim.spawn("repair_then_fold", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(5));
                let wg = p.primary().lookup("wg").unwrap();
                let dw = p.primary().lookup("dw").unwrap();
                p.repair_page(&ctx, wg, 0).unwrap();
                p.accumulate_range(&ctx, dw, wg, 0, 4).unwrap();
            });
        }
        {
            let p = pair.clone();
            sim.spawn("repair_only", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(5));
                let wg = p.primary().lookup("wg").unwrap();
                p.repair_page(&ctx, wg, 0).unwrap();
            });
        }
        {
            let p = pair.clone();
            sim.spawn("check", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(50));
                let wg = p.primary().lookup("wg").unwrap();
                let client = SmbClient::new(p.primary().clone(), NodeId(0));
                let buf = client.alloc(&ctx, wg).unwrap();
                let mut copy = [0.0f32; 4];
                client.read(&ctx, &buf, &mut copy).unwrap();
                assert_eq!(copy, [11.0; 4], "W_g must be repaired-then-folded, never stale");
                assert!(p.primary().poisoned_pages(wg).is_empty(), "poison must clear");
                assert_eq!(p.primary().corruptions_detected(), 1);
                // Repair does not bump versions, so the standby still holds
                // the replicated pre-fold snapshot.
                let swg = p.standby().lookup("wg").unwrap();
                let sc = SmbClient::new(p.standby().clone(), NodeId(0));
                let sbuf = sc.alloc(&ctx, swg).unwrap();
                sc.read(&ctx, &sbuf, &mut copy).unwrap();
                assert_eq!(copy, [1.0; 4], "standby serves the replicated snapshot");
            });
        }
        let p = pair;
        sim.set_state_probe(move || p.state_hash());
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(128), setup);
    assert!(report.certified(), "repair-vs-accumulate must certify: {report:?}");
    assert!(report.schedules >= 2, "the repair ties must be explored: {report:?}");
    println!(
        "schedcheck repair-vs-accumulate: {} explored / {} naive ({} pruned independent)",
        report.schedules,
        report.naive_schedules(),
        report.pruned_independent
    );
}

/// Seeded missing-HB-edge mutation: the worker heartbeats exactly *at* the
/// eviction scan's wake time instead of strictly before it, so nothing
/// orders the heartbeat before the scan. The default (pid-order) schedule
/// happens to run the heartbeat first and passes; the explorer must find
/// the reordering where the scan wins the tie and evicts the segment, and
/// the `.sched` trace must replay it bit-identically.
#[test]
fn mutated_heartbeat_without_hb_edge_is_caught() {
    let model = |mutated: bool| {
        move |sim: &mut Simulation| {
            let cfg = SmbServerConfig {
                lease_timeout: SimDuration::from_millis(5),
                ..Default::default()
            };
            let server = SmbServer::with_config(single_fabric(sim), cfg).unwrap();
            {
                let s = server.clone();
                sim.spawn("boot", move |ctx| {
                    let client = SmbClient::new(s, NodeId(0));
                    client.create_owned(&ctx, "dw", 4, None, 1).unwrap();
                });
            }
            {
                let s = server.clone();
                // Spawned before the evictor: the default tie order runs the
                // worker first, masking the missing edge.
                sim.spawn("worker", move |ctx| {
                    // Correct: renew strictly inside the lease window.
                    // Mutated: renew at the scan's exact wake time — no
                    // happens-before edge orders it before the scan.
                    let at = if mutated { 10 } else { 4 };
                    ctx.sleep_until(SimTime::from_millis(at));
                    s.touch_owner(&ctx, 1);
                    assert!(
                        s.lookup("dw").is_some(),
                        "missing-HB edge: the eviction scan raced the heartbeat"
                    );
                });
            }
            {
                let s = server.clone();
                sim.spawn("evictor", move |ctx| {
                    ctx.sleep_until(SimTime::from_millis(10));
                    s.evict_stale(&ctx);
                });
            }
            let s = server;
            sim.set_state_probe(move || s.state_hash());
        }
    };

    // The correct protocol certifies clean.
    let clean = Simulation::explore(&ExploreBounds::exhaustive(64), model(false));
    assert!(clean.certified(), "in-window heartbeat must certify: {clean:?}");

    // The mutated one is caught, on a non-default schedule.
    let trace_path = sched_dir().join("missing_hb.sched");
    let bounds =
        ExploreBounds { trace_path: Some(trace_path.clone()), ..ExploreBounds::exhaustive(64) };
    let failure = Simulation::explore(&bounds, model(true))
        .failure
        .expect("the heartbeat/eviction race must be found");
    assert!(failure.message.contains("missing-HB edge"), "got: {}", failure.message);
    assert!(
        failure.trace.entries.iter().any(|e| e.chosen != 0),
        "the failure must need a non-default schedule: {:?}",
        failure.trace
    );
    let loaded = ScheduleTrace::load(&trace_path).expect("trace file parses");
    assert_eq!(loaded, failure.trace);
    for _ in 0..2 {
        let replay = Simulation::replay(&loaded, model(true));
        assert_eq!(replay.result.as_ref().err(), Some(&failure.message));
        assert_eq!(replay.state_hash, failure.state_hash);
    }
    println!("schedcheck mutation missing-HB: caught with trace {:?}", failure.trace);
}

/// Seeded fence-check-skip mutation: the late writer bypasses
/// `admit_mutation` and writes straight to the demoted primary. The
/// promoter's frozen-version assertion must catch it within budget, and
/// the recorded trace must replay bit-identically. The protocol-following
/// variant of the same model certifies clean.
#[test]
fn mutated_fence_check_skip_is_caught() {
    let model = |mutated: bool| {
        move |sim: &mut Simulation| {
            let cfg = SmbServerConfig {
                authority_timeout: SimDuration::from_millis(10),
                ..Default::default()
            };
            let pair = SmbPair::new(pair_fabric(sim), cfg).unwrap();
            {
                let p = pair.clone();
                sim.spawn("boot", move |ctx| {
                    let client = SmbClient::new(p.primary().clone(), NodeId(0));
                    let wg = client.create(&ctx, "wg", 4, None).unwrap();
                    let buf = client.alloc(&ctx, wg).unwrap();
                    client.write(&ctx, &buf, &[1.0; 4]).unwrap();
                });
            }
            {
                let p = pair.clone();
                sim.spawn("late_writer", move |ctx| {
                    ctx.sleep_until(SimTime::from_millis(10));
                    let wg = p.primary().lookup("wg").unwrap();
                    // Correct: check the fence first (rejected — the lease
                    // lapsed). Mutated: skip the check and write anyway.
                    if !mutated && p.admit_mutation(&ctx, wg, 1).is_err() {
                        return;
                    }
                    let client = SmbClient::new(p.primary().clone(), NodeId(0));
                    let buf = client.alloc(&ctx, wg).unwrap();
                    client.write(&ctx, &buf, &[9.0; 4]).unwrap();
                });
            }
            {
                let p = pair.clone();
                sim.spawn("promoter", move |ctx| {
                    ctx.sleep_until(SimTime::from_millis(10));
                    p.promote(&ctx);
                    let wg = p.primary().lookup("wg").unwrap();
                    let frozen = p.primary().version(wg).unwrap();
                    ctx.sleep(SimDuration::from_millis(5));
                    assert_eq!(
                        p.primary().version(wg).unwrap(),
                        frozen,
                        "fence-check skip: a post-fence write landed on the demoted primary"
                    );
                });
            }
            let p = pair;
            sim.set_state_probe(move || p.state_hash());
        }
    };

    let clean = Simulation::explore(&ExploreBounds::exhaustive(64), model(false));
    assert!(clean.certified(), "the fence-checked variant must certify: {clean:?}");

    let trace_path = sched_dir().join("fence_skip.sched");
    let bounds =
        ExploreBounds { trace_path: Some(trace_path.clone()), ..ExploreBounds::exhaustive(64) };
    let failure = Simulation::explore(&bounds, model(true))
        .failure
        .expect("the fence-check skip must be found");
    assert!(failure.message.contains("fence-check skip"), "got: {}", failure.message);
    let loaded = ScheduleTrace::load(&trace_path).expect("trace file parses");
    assert_eq!(loaded, failure.trace);
    for _ in 0..2 {
        let replay = Simulation::replay(&loaded, model(true));
        assert_eq!(replay.result.as_ref().err(), Some(&failure.message));
        assert_eq!(replay.state_hash, failure.state_hash);
    }
    println!("schedcheck mutation fence-skip: caught with trace {:?}", failure.trace);
}

/// Seeded repair-fence removal: two clients race `repair_page` for the
/// same poisoned page with pages big enough that the repair transfer is
/// wire-time-dominated, so the loser's transfer is still in flight when
/// the winner has installed *and* its owner has folded ΔW into the
/// repaired page. With the fence intact the loser re-checks the poison
/// after its transfer and skips; with it disabled
/// (`set_repair_fence(false)`) the stale replica bytes land over the fold
/// — a silent lost update with a *valid* CRC that no read can ever flag.
/// The explorer must catch the mutant (the fenced variant of the same
/// model certifies clean across every schedule), and the `.sched` trace
/// must replay the failure bit-identically.
#[test]
fn mutated_repair_without_fence_is_caught() {
    const PE: usize = 65536; // 256 KiB pages: repair wire time >> path latency
    const N: usize = 2 * PE;
    let model = |mutated: bool| {
        move |sim: &mut Simulation| {
            let cfg = SmbServerConfig { page_elems: PE, ..Default::default() };
            let pair = SmbPair::new(pair_fabric(sim), cfg).unwrap();
            if mutated {
                pair.set_repair_fence(false);
            }
            {
                let p = pair.clone();
                sim.spawn("boot", move |ctx| {
                    let client = SmbClient::new(p.primary().clone(), NodeId(0));
                    let wg = client.create(&ctx, "wg", N, None).unwrap();
                    let buf = client.alloc(&ctx, wg).unwrap();
                    client.write(&ctx, &buf, &vec![1.0; N]).unwrap();
                    let dw = client.create(&ctx, "dw", N, None).unwrap();
                    let dbuf = client.alloc(&ctx, dw).unwrap();
                    client.write(&ctx, &dbuf, &vec![10.0; N]).unwrap();
                    p.replicate(&ctx).unwrap();
                    p.primary().inject_bit_flip(wg, 1, 12).unwrap();
                    assert_eq!(p.primary().scrub_pass(&ctx), 1);
                });
            }
            {
                let p = pair.clone();
                sim.spawn("repair_then_fold", move |ctx| {
                    ctx.sleep_until(SimTime::from_millis(20));
                    let wg = p.primary().lookup("wg").unwrap();
                    let dw = p.primary().lookup("dw").unwrap();
                    p.repair_page(&ctx, wg, 0).unwrap();
                    p.accumulate_range(&ctx, dw, wg, 0, 4).unwrap();
                });
            }
            {
                let p = pair.clone();
                sim.spawn("late_repair", move |ctx| {
                    // Starts mid-flight of the first repair: sees the poison
                    // (the install is ~150 µs of wire time away), transfers,
                    // and completes only after the winner's fold landed.
                    ctx.sleep_until(SimTime::from_millis(20));
                    ctx.sleep(SimDuration::from_micros(20));
                    let wg = p.primary().lookup("wg").unwrap();
                    p.repair_page(&ctx, wg, 0).unwrap();
                });
            }
            {
                let p = pair.clone();
                sim.spawn("check", move |ctx| {
                    ctx.sleep_until(SimTime::from_millis(50));
                    let wg = p.primary().lookup("wg").unwrap();
                    let client = SmbClient::new(p.primary().clone(), NodeId(0));
                    let buf = client.alloc(&ctx, wg).unwrap();
                    let mut copy = [0.0f32; 4];
                    client.read_range(&ctx, &buf, 0, &mut copy).unwrap();
                    assert_eq!(
                        copy, [11.0; 4],
                        "repair-fence: stale replica bytes landed over the fold"
                    );
                });
            }
            let p = pair;
            sim.set_state_probe(move || p.state_hash());
        }
    };

    // With the fence intact the same overlap certifies clean.
    let clean = Simulation::explore(&ExploreBounds::exhaustive(128), model(false));
    assert!(clean.certified(), "the fenced repair must certify: {clean:?}");

    let trace_path = sched_dir().join("repair_fence.sched");
    let bounds =
        ExploreBounds { trace_path: Some(trace_path.clone()), ..ExploreBounds::exhaustive(128) };
    let failure = Simulation::explore(&bounds, model(true))
        .failure
        .expect("the unfenced repair lost-update must be found");
    assert!(failure.message.contains("repair-fence"), "got: {}", failure.message);
    let loaded = ScheduleTrace::load(&trace_path).expect("trace file parses");
    assert_eq!(loaded, failure.trace);
    for _ in 0..2 {
        let replay = Simulation::replay(&loaded, model(true));
        assert_eq!(replay.result.as_ref().err(), Some(&failure.message));
        assert_eq!(replay.state_hash, failure.state_hash);
    }
    println!("schedcheck mutation repair-fence: caught with trace {:?}", failure.trace);
}
