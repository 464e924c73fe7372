//! End-to-end tests of the `schedcheck` schedule explorer: choice-point
//! coverage (ties, wake order, delivery order), counterexample discovery
//! and minimization, bit-identical `.sched` replay, and DPOR pruning.

use parking_lot::Mutex;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::{AccessKind, ExploreBounds, ScheduleTrace, SimDuration, Simulation};
use std::path::PathBuf;
use std::sync::Arc;

fn sched_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("target tmpdir exists");
    dir
}

/// Several models below *deliberately* put conflicting unsynchronized
/// accesses at tied wake times — that is the schedule space being explored.
/// Under `--features race-detect` the vector-clock detector would
/// (correctly) halt on them, so it collects reports instead of aborting.
fn tolerant(sim: &Simulation) {
    #[cfg(feature = "race-detect")]
    sim.race_detector().set_halt_on_race(false);
    #[cfg(not(feature = "race-detect"))]
    let _ = sim;
}

/// Two processes tied at the same wake time, with an ordering assumption
/// that only the default (pid-order) schedule satisfies. `schedcheck` must
/// find the reordering, minimize it to a single tie flip, and the `.sched`
/// trace must replay the failure bit-identically. The shared flag is
/// annotated with footprints so the pruner knows the steps conflict.
#[test]
fn finds_and_replays_a_tie_ordering_bug() {
    let trace_path = sched_dir().join("tie_bug.sched");
    let setup = |sim: &mut Simulation| {
        tolerant(sim);
        let flag = Arc::new(Mutex::new(false));
        let w = Arc::clone(&flag);
        sim.spawn("writer", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            ctx.access(1, 0, 1, AccessKind::Write, "model");
            *w.lock() = true;
        });
        let r = Arc::clone(&flag);
        sim.spawn("reader", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            ctx.access(1, 0, 1, AccessKind::Read, "model");
            // Missing synchronization: relies on the writer winning the tie.
            assert!(*r.lock(), "schedcheck: reader ran before writer");
        });
    };

    let bounds =
        ExploreBounds { trace_path: Some(trace_path.clone()), ..ExploreBounds::exhaustive(64) };
    let report = Simulation::explore(&bounds, setup);
    let failure = report.failure.expect("the tie reordering must be found");
    assert!(failure.message.contains("reader ran before writer"), "got: {}", failure.message);
    // Minimized to a single decisive preemption (non-default choice).
    let preemptions =
        failure.trace.entries.iter().filter(|e| e.chosen != 0 && e.chosen != e.arity - 1).count();
    assert!(
        !failure.trace.entries.is_empty() && preemptions <= 1,
        "trace not minimal: {:?}",
        failure.trace
    );

    // The .sched file replays the failure bit-identically.
    assert_eq!(failure.trace_file.as_deref(), Some(trace_path.as_path()));
    let loaded = ScheduleTrace::load(&trace_path).expect("trace file parses");
    assert_eq!(loaded, failure.trace);
    let replay = Simulation::replay(&loaded, setup);
    assert_eq!(replay.result.as_ref().err(), Some(&failure.message));
    assert_eq!(replay.state_hash, failure.state_hash);
    // And again: replay of a replay is still bit-identical.
    let replay2 = Simulation::replay(&loaded, setup);
    assert_eq!(replay2.result.as_ref().err(), Some(&failure.message));
    assert_eq!(replay2.state_hash, replay.state_hash);
}

/// A correct version of the same model (the reader blocks on a doorbell
/// channel) certifies clean over the whole schedule space.
#[test]
fn certifies_a_synchronized_model_clean() {
    let report = Simulation::explore(&ExploreBounds::exhaustive(256), |sim| {
        let flag = Arc::new(Mutex::new(false));
        let doorbell: SimChannel<()> = SimChannel::new("doorbell");
        let w = Arc::clone(&flag);
        let tx = doorbell.clone();
        sim.spawn("writer", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            ctx.access(1, 0, 1, AccessKind::Write, "model");
            *w.lock() = true;
            tx.send(&ctx, ());
        });
        let r = Arc::clone(&flag);
        sim.spawn("reader", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            doorbell.recv(&ctx);
            ctx.access(1, 0, 1, AccessKind::Read, "model");
            assert!(*r.lock(), "doorbell implies the write is visible");
        });
    });
    assert!(report.certified(), "report: {report:?}");
    assert!(report.schedules >= 2, "the tie must still be explored: {report:?}");
}

/// Message delivery order within a delivery window is a choice point: two
/// senders post before the receiver looks, so either message may land first.
#[test]
fn explores_delivery_order_within_a_window() {
    let setup = |sim: &mut Simulation| {
        let ch: SimChannel<u32> = SimChannel::new("window");
        for (name, v) in [("s1", 1u32), ("s2", 2u32)] {
            let tx = ch.clone();
            sim.spawn(name, move |ctx| {
                ctx.sleep(SimDuration::from_millis(1));
                tx.send(&ctx, v);
            });
        }
        sim.spawn("rx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            let first = ch.recv(&ctx);
            // Wrong assumption: s1's message always arrives first.
            assert_eq!(first, 1, "schedcheck: delivery order is not guaranteed");
        });
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(64), setup);
    let failure = report.failure.expect("alternative delivery order must be found");
    assert!(failure.message.contains("delivery order"), "got: {}", failure.message);
    let replay = Simulation::replay(&failure.trace, setup);
    assert_eq!(replay.result.as_ref().err(), Some(&failure.message));
}

/// Wake order at a channel with several parked receivers is a choice point.
#[test]
fn explores_wake_order_races() {
    let setup = |sim: &mut Simulation| {
        let ch: SimChannel<u32> = SimChannel::new("wake");
        let got = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u32 {
            let rx = ch.clone();
            let got = Arc::clone(&got);
            sim.spawn(&format!("rx{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_micros(u64::from(i)));
                let v = rx.recv(&ctx);
                got.lock().push((i, v));
            });
        }
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            tx.send(&ctx, 7);
            tx.send(&ctx, 8);
        });
        let got = Arc::clone(&got);
        sim.spawn("check", move |ctx| {
            ctx.sleep(SimDuration::from_millis(10));
            let g = got.lock();
            // Wrong assumption: the most recently parked receiver (rx1)
            // always takes the first message.
            assert_eq!(g.first(), Some(&(1, 7)), "schedcheck: wake order is not guaranteed");
        });
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(128), setup);
    let failure = report.failure.expect("alternative wake order must be found");
    assert!(failure.message.contains("wake order"), "got: {}", failure.message);
}

/// DPOR pruning: three workers touching *disjoint* footprint ranges all
/// commute, so the explorer skips their reorderings; the same model with
/// pruning disabled enumerates every interleaving. Both certify clean, and
/// the pruned search is strictly smaller — the explored-vs-naive counts the
/// acceptance criteria ask for.
#[test]
fn pruning_skips_commuting_reorderings() {
    let model = |conflicting: bool| {
        move |sim: &mut Simulation| {
            tolerant(sim);
            for i in 0..3usize {
                sim.spawn(&format!("w{i}"), move |ctx| {
                    // Region 42, disjoint 16-element tiles per worker — or
                    // fully overlapping writes in the conflicting variant.
                    let offset = if conflicting { 0 } else { i * 16 };
                    ctx.access(42, offset, 16, AccessKind::Write, "model");
                });
            }
        }
    };

    let pruned = Simulation::explore(&ExploreBounds::exhaustive(256), model(false));
    assert!(pruned.certified(), "disjoint model must certify: {pruned:?}");
    assert!(pruned.pruned_independent > 0, "expected pruning: {pruned:?}");
    assert!(pruned.schedules < pruned.naive_schedules());

    let naive_bounds = ExploreBounds { prune_independent: false, ..ExploreBounds::exhaustive(256) };
    let naive = Simulation::explore(&naive_bounds, model(false));
    assert!(naive.certified(), "naive search must certify too: {naive:?}");
    assert!(
        pruned.schedules < naive.schedules,
        "pruning must reduce explored schedules: {} vs {}",
        pruned.schedules,
        naive.schedules
    );

    // Overlapping writes do not commute: nothing may be pruned.
    let conflict = Simulation::explore(&ExploreBounds::exhaustive(256), model(true));
    assert!(conflict.certified(), "report: {conflict:?}");
    assert_eq!(conflict.pruned_independent, 0, "report: {conflict:?}");
    println!(
        "schedcheck pruning: disjoint {} explored / {} naive; conflicting {} explored",
        pruned.schedules,
        pruned.naive_schedules(),
        conflict.schedules
    );
}

/// Commuting schedules converge on the same terminal-state FNV fingerprint:
/// every interleaving of three additions ends in one state.
#[test]
fn commuting_schedules_converge_on_one_state() {
    let setup = |sim: &mut Simulation| {
        let total = Arc::new(Mutex::new(0u64));
        for i in 0..3u64 {
            let total = Arc::clone(&total);
            sim.spawn(&format!("adder{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_millis(1));
                *total.lock() += i + 1;
            });
        }
        let total = Arc::clone(&total);
        sim.set_state_probe(move || *total.lock());
    };
    // The shared total is invisible to the pruner, so run every interleaving.
    let bounds = ExploreBounds { prune_independent: false, ..ExploreBounds::exhaustive(256) };
    let report = Simulation::explore(&bounds, setup);
    assert!(report.certified(), "report: {report:?}");
    // Addition commutes: every interleaving ends in the same state.
    assert_eq!(report.distinct_states, 1, "report: {report:?}");
}

/// The schedule budget is a hard cap and is reported as an incomplete
/// search, never as a certification.
#[test]
fn budget_truncation_is_not_certification() {
    let report = Simulation::explore(&ExploreBounds::exhaustive(2), |sim| {
        tolerant(sim);
        for i in 0..4usize {
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_millis(1));
                ctx.access(7, 0, 1, AccessKind::Write, "model");
            });
        }
    });
    assert!(report.failure.is_none());
    assert!(!report.complete, "a truncated search must not certify: {report:?}");
    assert_eq!(report.schedules, 2);
}

/// A stale trace (model changed underneath it) reports divergence instead
/// of silently replaying something else.
#[test]
fn stale_trace_reports_divergence() {
    let trace = ScheduleTrace::from_text("schedcheck v1\ntie 5 4\n").expect("valid text");
    let outcome = Simulation::replay(&trace, |sim| {
        for i in 0..2usize {
            sim.spawn(&format!("p{i}"), move |ctx| ctx.sleep(SimDuration::from_millis(1)));
        }
    });
    let err = outcome.result.expect_err("arity mismatch must be reported");
    assert!(err.contains("diverged"), "got: {err}");
}

/// Deadlocks reachable only under alternative schedules are found and
/// reported like any other failure: the default schedule completes, but
/// delivering the other sender's message first leaves a waiter parked
/// forever.
#[test]
fn finds_schedule_dependent_deadlock() {
    let setup = |sim: &mut Simulation| {
        let data: SimChannel<u32> = SimChannel::new("data");
        let done: SimChannel<()> = SimChannel::new("done");
        for (name, v) in [("s1", 1u32), ("s2", 2u32)] {
            let tx = data.clone();
            sim.spawn(name, move |ctx| {
                ctx.sleep(SimDuration::from_millis(1));
                tx.send(&ctx, v);
            });
        }
        let d = done.clone();
        sim.spawn("rx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            // Signals completion only for s1's message — the alternative
            // delivery order strands the waiter.
            if data.recv(&ctx) == 1 {
                d.send(&ctx, ());
            }
        });
        sim.spawn("waiter", move |ctx| {
            done.recv(&ctx);
        });
    };
    let report = Simulation::explore(&ExploreBounds::exhaustive(128), setup);
    let failure = report.failure.expect("the stranding delivery order must be found");
    assert!(failure.message.contains("deadlock"), "got: {}", failure.message);
    assert!(failure.message.contains("waiter"), "got: {}", failure.message);
    let replay = Simulation::replay(&failure.trace, setup);
    assert_eq!(replay.result.as_ref().err(), Some(&failure.message));
}
