//! The scheduler's fiber hand-off: grant order is untouched (golden
//! schedule fingerprint), exactly one fiber switch per grant to another
//! process and no trip through the run loop for it (`SchedStats`), and the
//! abort paths still unwind every suspended process.

use parking_lot::Mutex;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::explore::Fnv;
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::{SimContext, SimDuration, Simulation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` on a helper thread under a wall-clock watchdog, so a process
/// that is never resumed is a red test rather than a hung suite.
#[allow(
    clippy::disallowed_methods,
    reason = "a wall-clock watchdog around the simulation, not a process inside it"
)]
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("simulation hung: a suspended process was never resumed");
    helper.join().expect("helper thread exits once it has reported");
    out
}

/// Tiny seeded generator (SplitMix64), one per simulated process, so each
/// process's program is fixed by the seed and only the schedule decides the
/// interleaving. Not `rand`: the golden literal below must not depend on
/// which build of it (crates.io or the offline stand-in) is linked.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const DONE: u64 = 999_999;

/// The seeded scenario of the golden tests: every one of `procs` processes
/// mixes `sleep`, `yield_now`, channel `send` / `recv_timeout` / `try_recv`,
/// dynamic `ctx.spawn` and transfers over one contended link, then closes
/// with a blocking `recv` ring. Each return from a scheduler call appends
/// `(pid, virtual time, outcome)` to the log; exactly one process runs at a
/// time, so the log order is the grant order.
///
/// The first `early` processes play 6 rounds instead of 60 and leave
/// without waiting for their predecessor's DONE, so their pids finish
/// while later ones still run (their successors still get a DONE).
///
/// Returns the hash of the log and the number of timed waits a send pulled
/// forward (woken after parking, before the deadline).
fn fingerprint_scenario(seed: u64, procs: usize, early: usize) -> (u64, usize) {
    let pulled = Arc::new(AtomicUsize::new(0));
    let log: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let link = BandwidthResource::new("link", LinkModel::new(1e9, SimDuration::from_micros(2)));
    let inbox: Vec<SimChannel<u64>> =
        (0..procs).map(|i| SimChannel::new(&format!("inbox{i}"))).collect();
    let mut sim = Simulation::new();
    for i in 0..procs {
        let (log, pulled) = (Arc::clone(&log), Arc::clone(&pulled));
        let link = link.clone();
        let mine = inbox[i].clone();
        let next = inbox[(i + 1) % procs].clone();
        let (rounds, waits) = if i < early { (6, false) } else { (60, true) };
        sim.spawn(&format!("p{i}"), move |ctx| {
            let mut rng = Rng(seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            let note = |ctx: &SimContext, outcome: u64| {
                log.lock().push((ctx.pid(), ctx.now().as_nanos(), outcome));
            };
            let mut children = 0u64;
            // The predecessor may finish first: its DONE can arrive while
            // this process is still in its rounds.
            let mut done_seen = !waits;
            for round in 0..rounds {
                match rng.below(8) {
                    0 | 1 => {
                        ctx.sleep(SimDuration::from_micros(1 + rng.below(40)));
                        note(&ctx, 0);
                    }
                    2 => {
                        ctx.yield_now();
                        note(&ctx, 1);
                    }
                    3 => {
                        next.send(&ctx, round);
                        note(&ctx, 2);
                    }
                    4 => {
                        let timeout = SimDuration::from_micros(1 + rng.below(30));
                        let parked_at = ctx.now();
                        let got = mine.recv_timeout(&ctx, timeout);
                        if got.is_some() && ctx.now() > parked_at && ctx.now() < parked_at + timeout
                        {
                            pulled.fetch_add(1, Ordering::Relaxed);
                        }
                        done_seen |= got == Some(DONE);
                        note(&ctx, 3 + got.map_or(0, |v| v + 1));
                    }
                    5 => {
                        let got = mine.try_recv(&ctx);
                        done_seen |= got == Some(DONE);
                        note(&ctx, 100 + got.map_or(0, |v| v + 1));
                    }
                    6 => {
                        link.transfer(&ctx, 1_000 + rng.below(20_000));
                        note(&ctx, 200);
                    }
                    _ if children < 2 => {
                        children += 1;
                        let (log, link, mine) = (Arc::clone(&log), link.clone(), mine.clone());
                        let naps = 1 + rng.below(3);
                        ctx.spawn(&format!("p{i}c{children}"), move |cctx| {
                            for nap in 0..naps {
                                cctx.sleep(SimDuration::from_micros(3 + nap));
                                link.transfer(&cctx, 4_096);
                                log.lock().push((cctx.pid(), cctx.now().as_nanos(), 300));
                            }
                            mine.send(&cctx, 1_000 + naps);
                        });
                        note(&ctx, 301);
                    }
                    _ => {
                        ctx.yield_now();
                        note(&ctx, 302);
                    }
                }
            }
            // Closing ring: tell the successor we are done, then block (a
            // plain `recv`) until the predecessor's DONE has arrived. Every
            // process sends before it blocks, so the ring cannot deadlock.
            next.send(&ctx, DONE);
            while !done_seen {
                let v = mine.recv(&ctx);
                done_seen = v == DONE;
                note(&ctx, 400 + v);
            }
        });
    }
    let end = sim.run();
    let mut h = Fnv::new();
    h.write_u64(end.as_nanos());
    for &(pid, at, outcome) in log.lock().iter() {
        h.write_u64(pid as u64);
        h.write_u64(at);
        h.write_u64(outcome);
    }
    (h.finish(), pulled.load(Ordering::Relaxed))
}

/// The grant sequence of the seeded scenario, hashed, against a literal
/// captured on the commit *before* the broadcast wake-up was replaced: the
/// hand-off rewrite (and anything after it) must not reorder a single grant.
#[test]
fn schedule_fingerprint_matches_the_pre_handoff_scheduler() {
    let (hash, _) = within_watchdog(|| fingerprint_scenario(7, 16, 0));
    assert_eq!(hash, GOLDEN_FINGERPRINT_SEED_7, "grant order changed: {hash:#018x}");
    let (other, _) = within_watchdog(|| fingerprint_scenario(8, 16, 0));
    assert_ne!(other, hash, "the fingerprint must depend on the seed");
}

const GOLDEN_FINGERPRINT_SEED_7: u64 = 0x7f51_a726_25e2_4506;

/// The same scenario over 80 processes, the first 16 of which leave early:
/// pids (children included) span several 64-bit words, low pids finish
/// while high ones still run, and sends pull timed waits forward. The
/// literal was captured on the commit before dispatch kept its wake keys
/// in a dense array and `SimContext::now` stopped taking the state lock.
#[test]
fn schedule_fingerprint_of_eighty_processes_matches_the_scanning_dispatch() {
    let (hash, pulled) = within_watchdog(|| fingerprint_scenario(7, 80, 16));
    assert!(pulled > 0, "the scenario must pull timed waits forward");
    assert_eq!(hash, GOLDEN_FINGERPRINT_80_PROCS, "grant order changed: {hash:#018x}");
}

const GOLDEN_FINGERPRINT_80_PROCS: u64 = 0x981f_dfd4_fd34_b07d;

/// 32 processes mixing sleeps and channel traffic: every grant that is not
/// a self-grant costs exactly one fiber switch, the run loop resumes a
/// fiber only to start its process, and the counters are a pure function
/// of the schedule.
#[test]
fn one_switch_per_grant_and_stats_repeat() {
    let run = || {
        let mut sim = Simulation::new();
        for i in 0..16usize {
            let tx: SimChannel<u32> = SimChannel::new(&format!("c{i}"));
            let rx = tx.clone();
            sim.spawn(&format!("tx{i}"), move |ctx| {
                for k in 0..20u32 {
                    // Back-to-back short sleeps: many are self-grants.
                    ctx.sleep(SimDuration::from_micros(1 + (i as u64 * 7 + u64::from(k)) % 13));
                    ctx.sleep(SimDuration::from_nanos(10));
                    tx.send(&ctx, k);
                }
            });
            sim.spawn(&format!("rx{i}"), move |ctx| {
                let mut got = 0;
                while got < 20 {
                    if i % 2 == 0 {
                        rx.recv(&ctx);
                        got += 1;
                    } else if rx.recv_timeout(&ctx, SimDuration::from_micros(5)).is_some() {
                        got += 1;
                    }
                }
            });
        }
        let (result, stats) = sim.run_with_stats();
        result.expect("clean run");
        stats
    };
    let a = within_watchdog(run);
    let b = within_watchdog(run);
    assert_eq!(a, b, "scheduler counters must repeat exactly");
    assert_eq!(a.switches, a.grants - a.self_grants, "{a:?}");
    // 32 processes start and none unwinds: no steady-state grant passes
    // through the run loop.
    assert!(a.loop_resumes <= 32, "{a:?}");
    assert!(a.self_grants > 0, "scenario should exercise the self-grant fast path: {a:?}");
    assert!(a.grants > 32 * 20, "{a:?}");
}

/// Spawns `n` processes parked three different ways — a plain `recv` on a
/// channel nobody sends to (`block`), a long `recv_timeout` (`block_until`)
/// and a long `sleep` — each holding a clone of `token` for its lifetime.
fn spawn_parked(sim: &mut Simulation, n: usize, token: &Arc<()>) {
    for i in 0..n {
        let token = Arc::clone(token);
        let never: SimChannel<u8> = SimChannel::new(&format!("never{i}"));
        sim.spawn(&format!("parked{i}"), move |ctx| {
            let _token = token;
            match i % 3 {
                0 => {
                    never.recv(&ctx);
                }
                1 => {
                    never.recv_timeout(&ctx, SimDuration::from_secs(3_600));
                }
                _ => ctx.sleep(SimDuration::from_secs(3_600)),
            }
        });
    }
}

/// A panic must reach every suspended process: each is resumed once more
/// and unwinds, so every closure (and its token) is dropped before
/// `run_result` returns.
#[test]
fn panic_with_many_parked_processes_aborts_and_joins_everyone() {
    let token = Arc::new(());
    let held = Arc::clone(&token);
    let result = within_watchdog(move || {
        let mut sim = Simulation::new();
        spawn_parked(&mut sim, 18, &held);
        sim.spawn("bad", |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            panic!("boom");
        });
        spawn_parked(&mut sim, 6, &held);
        drop(held);
        sim.run_result()
    });
    assert_eq!(result, Err("boom".to_string()));
    // Every process closure (and its token) is gone: all fibers unwound
    // before `run_result` returned.
    assert_eq!(Arc::strong_count(&token), 1);
}

/// A true deadlock (every process blocked on a channel nobody will send
/// to) is detected by the last process to park and must likewise unwind
/// all.
#[test]
fn deadlock_with_many_processes_aborts_and_joins_everyone() {
    let token = Arc::new(());
    let held = Arc::clone(&token);
    let result = within_watchdog(move || {
        let mut sim = Simulation::new();
        for i in 0..20u64 {
            let token = Arc::clone(&held);
            let never: SimChannel<u8> = SimChannel::new(&format!("never{i}"));
            sim.spawn(&format!("stuck{i}"), move |ctx| {
                let _token = token;
                ctx.sleep(SimDuration::from_micros(i % 5));
                never.recv(&ctx);
            });
        }
        drop(held);
        sim.run_result()
    });
    let msg = result.expect_err("deadlock is reported");
    assert!(msg.starts_with("simulation deadlock"), "{msg}");
    assert!(msg.contains("stuck0") && msg.contains("stuck19"), "{msg}");
    assert_eq!(Arc::strong_count(&token), 1);
}
