//! What running every process of a run as a fiber on one fresh OS thread
//! promises: a stack overflow dies on the guard page, a `thread_local!`
//! never outlives its run, a run nests inside a process, and a process
//! that never started still drops its closure.

use parking_lot::Mutex;
use shmcaffe_simnet::{SimDuration, Simulation};
use std::cell::Cell;
use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Set in the child process that [`overflowing_process_dies_on_its_guard_page`]
/// starts: the child then runs the overflow.
const OVERFLOW_CHILD: &str = "SHMCAFFE_SIMNET_OVERFLOW_CHILD";

/// Recurses `depth` frames of at least 512 stack bytes each.
fn recurse(depth: u64) -> u64 {
    let frame = black_box([depth; 64]);
    if depth == 0 {
        return frame[0];
    }
    recurse(depth - 1).wrapping_add(frame[(depth % 64) as usize])
}

/// The child half: a process recursing far past its 2 MiB stack.
#[test]
fn overflow_child() {
    if std::env::var_os(OVERFLOW_CHILD).is_none() {
        return;
    }
    let mut sim = Simulation::new();
    sim.spawn("deep", |_| {
        black_box(recurse(1 << 20));
    });
    sim.run();
    println!("overflow_child: the recursion returned");
}

/// A process that recurses past its stack hits the `PROT_NONE` page below
/// it and the test binary dies by a signal — not a hang, and not a run
/// that carries on over corrupted memory.
#[test]
fn overflowing_process_dies_on_its_guard_page() {
    let mut child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "overflow_child", "--nocapture", "--test-threads=1"])
        .env(OVERFLOW_CHILD, "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start the child test binary");
    let mut status = None;
    for _ in 0..6_000 {
        status = child.try_wait().expect("poll the child");
        if status.is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let Some(status) = status else {
        child.kill().expect("kill the hung child");
        panic!("the overflowing process hung instead of dying");
    };
    let out = std::io::read_to_string(child.stdout.take().expect("piped stdout"))
        .expect("read the child's output");
    assert!(!out.contains("the recursion returned"), "{out}");
    let signal = status.signal();
    assert!(matches!(signal, Some(11 | 7)), "expected SIGSEGV or SIGBUS, got {status:?}\n{out}");
}

/// Well within the stack: a process may use a good share of its 2 MiB.
#[test]
fn a_process_can_recurse_half_a_megabyte_deep() {
    let mut sim = Simulation::new();
    sim.spawn("deep", |ctx| {
        ctx.sleep(SimDuration::from_micros(1));
        black_box(recurse(1_000));
        ctx.sleep(SimDuration::from_micros(1));
    });
    assert_eq!(sim.run().as_nanos(), 2_000);
}

thread_local! {
    static MARK: Cell<u32> = const { Cell::new(0) };
}

/// Every process of a run shares its thread, so a thread-local one process
/// writes is the next one's to read; but the run's thread is fresh, so the
/// value is gone in the next run on the same caller thread, and the
/// caller's own value is never seen.
#[test]
fn a_thread_local_written_in_one_run_reads_as_default_in_the_next() {
    MARK.with(|m| m.set(99));
    for _ in 0..3 {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 1..=3u32 {
            let seen = Arc::clone(&seen);
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_micros(u64::from(i)));
                seen.lock().push(MARK.with(Cell::get));
                MARK.with(|m| m.set(i));
            });
        }
        sim.run();
        assert_eq!(*seen.lock(), vec![0, 1, 2]);
    }
    assert_eq!(MARK.with(Cell::get), 99);
}

/// A process may run a whole simulation of its own; the inner run takes
/// a thread of its own and the outer process resumes after it.
#[test]
fn a_simulation_runs_inside_a_process() {
    let inner_end = Arc::new(Mutex::new(None));
    let mut sim = Simulation::new();
    let seen = Arc::clone(&inner_end);
    sim.spawn("outer", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1));
        let mut inner = Simulation::new();
        inner.spawn("a", |c| c.sleep(SimDuration::from_millis(5)));
        inner.spawn("b", |c| c.sleep(SimDuration::from_millis(3)));
        *seen.lock() = Some(inner.run().as_nanos());
        ctx.sleep(SimDuration::from_millis(1));
    });
    sim.spawn("beside", |ctx| ctx.sleep(SimDuration::from_millis(4)));
    assert_eq!(sim.run().as_nanos(), 4_000_000);
    assert_eq!(*inner_end.lock(), Some(5_000_000));
}

/// A panic before the other processes ever ran: their closures, and the
/// closure of a child spawned just before the panic, are dropped unrun.
#[test]
fn processes_that_never_started_drop_their_closures() {
    let token = Arc::new(());
    let mut sim = Simulation::new();
    let held = Arc::clone(&token);
    sim.spawn("bad", move |ctx| {
        let child = Arc::clone(&held);
        ctx.spawn("child", move |_| drop(child));
        drop(held);
        panic!("boom");
    });
    for i in 0..4 {
        let held = Arc::clone(&token);
        sim.spawn(&format!("idle{i}"), move |_| drop(held));
    }
    assert_eq!(sim.run_result(), Err("boom".to_string()));
    assert_eq!(Arc::strong_count(&token), 1);
}
