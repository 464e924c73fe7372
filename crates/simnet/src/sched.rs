//! The cooperative virtual-time scheduler.
//!
//! Exactly one simulated process runs at any instant: the one whose wake-up
//! time is globally minimal (ties broken by process id). Because every
//! state transition happens under a single lock and the running process is
//! unique, resource reservations and message sends occur in non-decreasing
//! virtual-time order, which makes the whole simulation deterministic for a
//! given program — independent of OS thread scheduling.
//!
//! A run takes one fresh OS thread, and every process is a fiber on it
//! (DESIGN.md §5k). A process that yields to another switches straight to
//! the fiber [`Core::dispatch`] granted, under the one state lock the
//! yield takes; the granted process and the run loop read the grant and
//! the abort flag without locking again. The run loop only starts
//! processes on fibers and drives the abort unwind.
//! A switch is the only hand-off — no OS wait, no wake-up.

use parking_lot::{Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::explore::{ChoiceKind, ChoiceRecord, SchedEvent, StepRecord};
use crate::fiber;
use crate::trace::TraceEntry;
use crate::{AccessKind, SimDuration, SimTime};

/// Identifies a simulated process within one [`Simulation`].
pub(crate) type Pid = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Ready to run at the contained virtual time.
    Runnable(SimTime),
    /// Currently executing (on its fiber).
    Running,
    /// Waiting for an external wake (channel message).
    Blocked,
    /// Completed (or panicked).
    Finished,
}

struct ProcSlot {
    name: String,
    /// The process's virtual time in nanoseconds, shared with its
    /// [`SimContext`]s. Only a grant moves it (see [`Core::dispatch`]).
    /// `Relaxed` suffices: it publishes no other data, and every access is
    /// on the run's one thread or after that thread is joined.
    clock: Arc<AtomicU64>,
    status: Status,
    /// True while the process is parked in [`Core::block_until`]: it is
    /// recorded as `Runnable(deadline)` (so the deadlock detector never
    /// counts it as blocked) but an earlier [`Core::wake`] may pull the
    /// grant forward.
    timed_wait: bool,
    /// The process's closure until its first grant, when the run loop puts
    /// it on a fiber (dropped unrun if the run ends first). A granted
    /// process still holding it is the one kind the run loop resumes.
    body: Option<Body>,
    /// This process's vector clock (one component per pid), advanced along
    /// synchronization edges for the happens-before race detector.
    #[cfg(feature = "race-detect")]
    vclock: Vec<u64>,
}

/// A process's closure, as [`Simulation::spawn`] and [`SimContext::spawn`]
/// take it.
type Body = Box<dyn FnOnce(SimContext) + Send + 'static>;

struct SchedState {
    procs: Vec<ProcSlot>,
    /// Per pid, the wake time in nanoseconds of a `Runnable` process and
    /// `u64::MAX` otherwise: the dense array [`Core::dispatch`] scans.
    /// [`SchedState::set_status`] keeps it in step with `procs`.
    wake_keys: Vec<u64>,
    unfinished: usize,
    panic_message: Option<String>,
    stats: SchedStats,
}

impl SchedState {
    /// Writes `pid`'s status and keeps its dispatch key in step.
    fn set_status(&mut self, pid: Pid, status: Status) {
        self.procs[pid].status = status;
        self.wake_keys[pid] = match status {
            Status::Runnable(at) => at.as_nanos(),
            _ => u64::MAX,
        };
    }

    /// The earliest `(wake time, pid)` over runnable processes, ties to
    /// the lowest pid.
    fn earliest(&self) -> Option<(SimTime, Pid)> {
        let mut best = (u64::MAX, 0);
        for (pid, &key) in self.wake_keys.iter().enumerate() {
            if key < best.0 {
                best = (key, pid);
            }
        }
        if best.0 < u64::MAX {
            return Some((SimTime::from_nanos(best.0), best.1));
        }
        // A process runnable at the very end of time shares its key with
        // the parked ones: only then ask the statuses.
        self.procs
            .iter()
            .enumerate()
            .find(|(_, p)| matches!(p.status, Status::Runnable(_)))
            .map(|(pid, _)| (SimTime::from_nanos(u64::MAX), pid))
    }
}

/// Deterministic scheduler counters of one run (see
/// [`Simulation::run_with_stats`]): pure functions of the schedule, so they
/// repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduler grants: how often some process was handed the running slot.
    pub grants: u64,
    /// Grants that went straight back to the process that had just yielded
    /// (it was itself the earliest runnable); these switch no stack.
    pub self_grants: u64,
    /// Grants to another process than the one giving up the slot (the
    /// run's first grant included): `grants − self_grants`, one fiber
    /// switch each.
    pub switches: u64,
    /// Fiber resumes by the run loop: one per process it starts on a fiber
    /// and one per suspended process it resumes to unwind when a panic or
    /// deadlock aborts the run. Every other switch goes straight from the
    /// process giving up the slot to the granted one.
    pub loop_resumes: u64,
}

/// Recording/forcing state for one explored run (see [`crate::explore`]).
///
/// Empty and inert unless [`Core::set_explore`] armed it: the default
/// schedule takes the fast path (`exploring` is false) and records nothing,
/// so exploration support costs the normal simulator one relaxed atomic
/// load per choice point.
#[derive(Default)]
struct ExploreState {
    /// Choices forced by the driver; beyond this prefix the defaults apply.
    forced: Vec<TraceEntry>,
    /// Index of the next choice point (into `forced` while it lasts).
    cursor: usize,
    /// Every choice point reached this run, with its resolution.
    choices: Vec<ChoiceRecord>,
    /// One record per scheduler grant, accumulating the granted process's
    /// shared-state events until the next grant.
    steps: Vec<StepRecord>,
    /// Set when a forced choice did not match the choice point actually
    /// reached — the model is nondeterministic or the trace is stale.
    diverged: Option<String>,
}

/// [`Core::granted`] when the last dispatch made no grant.
const NO_GRANT: usize = usize::MAX;

pub(crate) struct Core {
    state: Mutex<SchedState>,
    /// The process the last [`Core::dispatch`] granted, or [`NO_GRANT`].
    /// Written under the state lock; the run loop reads it without. Like
    /// `aborted`, it publishes no other data and every access is on the
    /// run's one thread, so `Relaxed` suffices.
    granted: AtomicUsize,
    /// Set with the first panic or deadlock ([`Core::abort`]); a process
    /// that is switched back to reads it without the lock.
    aborted: AtomicBool,
    /// Fast-path flag mirroring "explore state armed".
    exploring: AtomicBool,
    explore: Mutex<ExploreState>,
    /// Model-state fingerprint hook, sampled by the explorer after a run
    /// completes (see [`Simulation::set_state_probe`]).
    probe: Mutex<Option<Box<dyn Fn() -> u64 + Send>>>,
    /// The run's happens-before race detector (see
    /// [`Simulation::race_detector`]).
    #[cfg(feature = "race-detect")]
    pub(crate) race: Arc<crate::race::RaceDetector>,
}

impl Core {
    fn new() -> Arc<Self> {
        Arc::new(Core {
            state: Mutex::new(SchedState {
                procs: Vec::new(),
                wake_keys: Vec::new(),
                unfinished: 0,
                panic_message: None,
                stats: SchedStats::default(),
            }),
            granted: AtomicUsize::new(NO_GRANT),
            aborted: AtomicBool::new(false),
            exploring: AtomicBool::new(false),
            explore: Mutex::new(ExploreState::default()),
            probe: Mutex::new(None),
            #[cfg(feature = "race-detect")]
            race: Arc::new(crate::race::RaceDetector::new()),
        })
    }

    /// Arms choice recording for one run, forcing the given prefix.
    pub(crate) fn set_explore(&self, forced: Vec<TraceEntry>) {
        let mut ex = self.explore.lock();
        *ex = ExploreState { forced, ..ExploreState::default() };
        self.exploring.store(true, Ordering::Relaxed);
    }

    /// Takes the recorded choices/steps after a run (leaving recording off).
    pub(crate) fn take_explore(&self) -> (Vec<ChoiceRecord>, Vec<StepRecord>, Option<String>) {
        self.exploring.store(false, Ordering::Relaxed);
        let mut ex = self.explore.lock();
        let st = std::mem::take(&mut *ex);
        (st.choices, st.steps, st.diverged)
    }

    pub(crate) fn is_exploring(&self) -> bool {
        self.exploring.load(Ordering::Relaxed)
    }

    pub(crate) fn set_probe(&self, f: Box<dyn Fn() -> u64 + Send>) {
        *self.probe.lock() = Some(f);
    }

    /// Samples the model-state probe (0 when none was registered).
    pub(crate) fn probe_value(&self) -> u64 {
        self.probe.lock().as_ref().map_or(0, |f| f())
    }

    /// FNV-1a fingerprint of the terminal scheduler state (per-process
    /// clocks); combined with the model probe into the terminal-state
    /// fingerprint.
    pub(crate) fn sched_hash(&self) -> u64 {
        let state = self.state.lock();
        let mut h = crate::explore::Fnv::new();
        for p in &state.procs {
            h.write_u64(p.clock.load(Ordering::Relaxed));
            h.write_u64(match p.status {
                Status::Runnable(at) => 1 ^ at.as_nanos().rotate_left(8),
                Status::Running => 2,
                Status::Blocked => 3,
                Status::Finished => 4,
            });
        }
        h.finish()
    }

    /// Resolves the forced choice at `cursor` (validating it against the
    /// choice point actually reached) or falls back to `default`.
    fn forced_or_default(
        ex: &mut ExploreState,
        kind: ChoiceKind,
        arity: usize,
        default: usize,
    ) -> usize {
        let i = ex.cursor;
        ex.cursor += 1;
        match ex.forced.get(i) {
            None => default,
            Some(f) => {
                if f.kind != kind || f.arity as usize != arity || (f.chosen as usize) >= arity {
                    ex.diverged.get_or_insert_with(|| {
                        format!(
                            "schedule diverged at choice {i}: trace has {:?}({}#{}) but \
                             execution reached {:?}({})",
                            f.kind, f.arity, f.chosen, kind, arity
                        )
                    });
                    default
                } else {
                    f.chosen as usize
                }
            }
        }
    }

    /// Non-dispatch choice point (message wake/delivery order). Returns
    /// `default` unless exploration is armed and the point is a real branch
    /// (`arity > 1`); branch points with a single alternative are never
    /// recorded so traces stay dense.
    pub(crate) fn choose(&self, kind: ChoiceKind, arity: usize, default: usize) -> usize {
        if arity <= 1 || !self.exploring.load(Ordering::Relaxed) {
            return default;
        }
        let mut ex = self.explore.lock();
        let chosen = Self::forced_or_default(&mut ex, kind, arity, default);
        let step = ex.steps.len().saturating_sub(1);
        ex.choices.push(ChoiceRecord {
            kind,
            arity: arity as u16,
            chosen: chosen as u16,
            default: default as u16,
            candidates: Vec::new(),
            step,
        });
        chosen
    }

    /// Equal-time dispatch tie: picks which of `cands` (ascending pid, all
    /// runnable at the minimal wake time) runs next, and opens its step.
    fn pick_tie(&self, cands: &[Pid]) -> Pid {
        let mut ex = self.explore.lock();
        let chosen = if cands.len() > 1 {
            let c = Self::forced_or_default(&mut ex, ChoiceKind::Tie, cands.len(), 0);
            let step = ex.steps.len();
            ex.choices.push(ChoiceRecord {
                kind: ChoiceKind::Tie,
                arity: cands.len() as u16,
                chosen: c as u16,
                default: 0,
                candidates: cands.to_vec(),
                step,
            });
            c
        } else {
            0
        };
        let pid = cands[chosen];
        ex.steps.push(StepRecord { pid, events: Vec::new() });
        pid
    }

    /// Appends a shared-state event to the currently running step.
    pub(crate) fn note_event(&self, ev: SchedEvent) {
        if !self.exploring.load(Ordering::Relaxed) {
            return;
        }
        let mut ex = self.explore.lock();
        if let Some(step) = ex.steps.last_mut() {
            step.events.push(ev);
        }
    }

    /// Picks the next process to run, grants it the running slot and
    /// returns it (also recording it in [`Core::granted`]), or `None` if
    /// every process finished or the run aborted. Must be called with the
    /// state lock held and no process currently `Running`; `from` is the
    /// process giving up the slot (`None` for the initial dispatch by the
    /// run loop).
    ///
    /// The pick is the minimum `(wake time, pid)` of the dense key array
    /// (DESIGN.md §5k). The grant is the one place a process clock moves:
    /// it is published to the clock the process's [`SimContext`] reads.
    ///
    /// Once a panic or deadlock is recorded (see [`Core::abort`]), no
    /// further grants are made.
    fn dispatch(&self, state: &mut SchedState, from: Option<Pid>) -> Option<Pid> {
        self.granted.store(NO_GRANT, Ordering::Relaxed);
        if state.panic_message.is_some() {
            return None;
        }
        match state.earliest() {
            Some((at, pid)) => {
                // Equal-time ties are a schedule choice point: under
                // exploration the chooser may pick any process runnable at
                // `at`; the default (index 0 = minimal pid) reproduces the
                // deterministic schedule bit-for-bit.
                let pid = if self.exploring.load(Ordering::Relaxed) {
                    let cands: Vec<Pid> = state
                        .procs
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| matches!(p.status, Status::Runnable(t) if t == at))
                        .map(|(q, _)| q)
                        .collect();
                    self.pick_tie(&cands)
                } else {
                    pid
                };
                state.set_status(pid, Status::Running);
                let slot = &mut state.procs[pid];
                let clock = slot.clock.load(Ordering::Relaxed).max(at.as_nanos());
                slot.clock.store(clock, Ordering::Relaxed);
                slot.timed_wait = false;
                state.stats.grants += 1;
                if from == Some(pid) {
                    state.stats.self_grants += 1;
                } else {
                    state.stats.switches += 1;
                }
                self.granted.store(pid, Ordering::Relaxed);
                Some(pid)
            }
            None if state.unfinished > 0 => {
                let blocked: Vec<&str> = state
                    .procs
                    .iter()
                    .filter(|p| p.status == Status::Blocked)
                    .map(|p| p.name.as_str())
                    .collect();
                let msg = format!("simulation deadlock: blocked processes {blocked:?}");
                self.abort(state, msg);
                None
            }
            // Every process finished.
            None => None,
        }
    }

    /// Records the first panic or deadlock. No grant follows it: the run
    /// loop stops and resumes every suspended process once more, and each
    /// unwinds from its yield ("simulation aborted").
    fn abort(&self, state: &mut SchedState, msg: String) {
        state.panic_message.get_or_insert(msg);
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Hands the running slot from `pid` (whose new status the caller has
    /// just written) to the next process and suspends `pid`'s fiber until
    /// it is granted again. When `pid` is itself the earliest runnable
    /// this returns without switching. A granted process already on a
    /// fiber is switched to directly; one that has not started is started
    /// by the run loop, which `pid` switches back to.
    ///
    /// # Panics
    ///
    /// Panics (to unwind the simulated process) if the simulation aborted.
    fn switch(&self, mut state: MutexGuard<'_, SchedState>, pid: Pid) {
        let next = self.dispatch(&mut state, Some(pid));
        drop(state);
        match next {
            Some(next) if next == pid => return,
            // A process not on a fiber yet is started by the run loop.
            Some(next) if !fiber::switch_to(next) => fiber::suspend(),
            // Switched and back again, or no grant: only an abort leaves a
            // yielding process without one.
            _ => {}
        }
        if self.aborted.load(Ordering::Relaxed) {
            panic!("simulation aborted");
        }
    }

    /// Makes `pid` runnable at `at` (never before its own clock) and yields.
    fn yield_at(&self, mut state: MutexGuard<'_, SchedState>, pid: Pid, at: SimTime) {
        debug_assert_eq!(state.procs[pid].status, Status::Running);
        let clock = SimTime::from_nanos(state.procs[pid].clock.load(Ordering::Relaxed));
        state.set_status(pid, Status::Runnable(clock.max(at)));
        self.switch(state, pid);
    }

    /// Parks the process until another process calls [`Core::wake`].
    pub(crate) fn block(&self, pid: Pid) {
        let mut state = self.state.lock();
        debug_assert_eq!(state.procs[pid].status, Status::Running);
        state.set_status(pid, Status::Blocked);
        self.switch(state, pid);
    }

    /// Parks the process until another process calls [`Core::wake`] or the
    /// virtual clock reaches `deadline`, whichever comes first.
    ///
    /// Unlike [`Core::block`], a timed waiter is never counted as blocked by
    /// the deadlock detector: it is parked as `Runnable(deadline)` so the
    /// simulation always makes progress even if the wake never arrives.
    pub(crate) fn block_until(&self, pid: Pid, deadline: SimTime) {
        let mut state = self.state.lock();
        state.procs[pid].timed_wait = true;
        self.yield_at(state, pid, deadline);
    }

    /// Makes a blocked process runnable no earlier than `at`.
    ///
    /// Called by the (unique) running process, so `at >=` every other
    /// process's grantable time and ordering is preserved.
    pub(crate) fn wake(&self, pid: Pid, at: SimTime) {
        let mut state = self.state.lock();
        let slot = &state.procs[pid];
        let woken = SimTime::from_nanos(slot.clock.load(Ordering::Relaxed)).max(at);
        match slot.status {
            Status::Blocked => state.set_status(pid, Status::Runnable(woken)),
            // A timed waiter parked at its deadline may be pulled earlier by
            // a wake (but never pushed later).
            Status::Runnable(deadline) if slot.timed_wait && woken < deadline => {
                state.set_status(pid, Status::Runnable(woken));
            }
            // The waker runs exclusively, so the target cannot be Running;
            // an already-Runnable target keeps its earlier wake time, and a
            // finished one stays finished.
            _ => {}
        }
    }

    /// A process's whole life on its fiber: runs `body`, catching a panic
    /// (which aborts the run), then hands the running slot on and returns
    /// the grant, which its fiber switches to as it finishes.
    fn run_process(body: Body, ctx: SimContext) -> Option<Pid> {
        let (core, pid) = (Arc::clone(&ctx.core), ctx.pid);
        let result = catch_unwind(AssertUnwindSafe(|| body(ctx)));
        let panic_msg = result.err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "process panicked".to_string())
        });
        let mut state = core.state.lock();
        state.set_status(pid, Status::Finished);
        state.unfinished -= 1;
        if let Some(msg) = panic_msg {
            core.abort(&mut state, msg);
        }
        core.dispatch(&mut state, Some(pid))
    }

    fn register(&self, name: &str, initial_clock: SimTime, body: Body) -> Pid {
        let mut state = self.state.lock();
        let pid = state.procs.len();
        state.procs.push(ProcSlot {
            name: name.to_string(),
            clock: Arc::new(AtomicU64::new(initial_clock.as_nanos())),
            status: Status::Runnable(initial_clock),
            timed_wait: false,
            body: Some(body),
            #[cfg(feature = "race-detect")]
            vclock: Vec::new(),
        });
        state.wake_keys.push(initial_clock.as_nanos());
        state.unfinished += 1;
        pid
    }

    /// Increments `pid`'s own clock component and returns a snapshot — the
    /// stamp carried by a synchronization edge's source
    /// ([`crate::HbEdge::release`]) or taken at an instrumented access.
    #[cfg(feature = "race-detect")]
    pub(crate) fn vc_stamp(&self, pid: Pid) -> crate::race::VectorClock {
        let mut state = self.state.lock();
        let slot = &mut state.procs[pid];
        if slot.vclock.len() <= pid {
            slot.vclock.resize(pid + 1, 0);
        }
        slot.vclock[pid] += 1;
        crate::race::VectorClock::from_components(slot.vclock.clone())
    }

    /// Joins `other` into `pid`'s clock (elementwise max) and then
    /// increments `pid`'s own component — the sink of a synchronization
    /// edge ([`crate::HbEdge::acquire`]).
    #[cfg(feature = "race-detect")]
    pub(crate) fn vc_join(&self, pid: Pid, other: &crate::race::VectorClock) {
        let mut state = self.state.lock();
        let slot = &mut state.procs[pid];
        let incoming = other.components();
        let needed = incoming.len().max(pid + 1);
        if slot.vclock.len() < needed {
            slot.vclock.resize(needed, 0);
        }
        for (own, &theirs) in slot.vclock.iter_mut().zip(incoming.iter()) {
            *own = (*own).max(theirs);
        }
        slot.vclock[pid] += 1;
    }

    /// Seeds a freshly registered child's clock from its parent — the
    /// spawn edge (everything the parent did happens-before the child).
    #[cfg(feature = "race-detect")]
    pub(crate) fn vc_seed_child(&self, parent: Pid, child: Pid) {
        let mut state = self.state.lock();
        let parent_clock = {
            let slot = &mut state.procs[parent];
            if slot.vclock.len() <= parent {
                slot.vclock.resize(parent + 1, 0);
            }
            slot.vclock[parent] += 1;
            slot.vclock.clone()
        };
        state.procs[child].vclock = parent_clock;
    }

    /// The run loop, on the run's own thread. Every grant to a process
    /// already on a fiber switches straight to it, so a grant comes back
    /// here only for a process that has not started: the loop puts it on a
    /// fiber and resumes it, until no grant is left. Then — after a panic
    /// or deadlock — it resumes every suspended process once more so that
    /// it unwinds, and drops the closures of processes that never started.
    /// The fiber layer unmaps a finished process's stack as soon as the
    /// context its fiber switched to runs.
    fn run_loop(self: &Arc<Self>) {
        let mut loop_resumes = 0;
        self.dispatch(&mut self.state.lock(), None);
        loop {
            let pid = self.granted.load(Ordering::Relaxed);
            if pid == NO_GRANT {
                break;
            }
            let (body, clock) = {
                let mut state = self.state.lock();
                let slot = &mut state.procs[pid];
                let body = slot.body.take().expect("only an unstarted process is granted here");
                (body, Arc::clone(&slot.clock))
            };
            let ctx = SimContext { core: Arc::clone(self), pid, clock };
            fiber::spawn(pid, Box::new(move || Self::run_process(body, ctx)));
            loop_resumes += 1;
            fiber::resume(pid);
        }
        let procs = self.state.lock().procs.len();
        for pid in 0..procs {
            if let Some((back, finished)) = fiber::resume(pid) {
                loop_resumes += 1;
                debug_assert!(
                    back == pid && finished,
                    "an aborted process unwinds without yielding"
                );
            }
        }
        let mut state = self.state.lock();
        state.stats.loop_resumes = loop_resumes;
        let unstarted: Vec<Body> = state.procs.iter_mut().filter_map(|p| p.body.take()).collect();
        drop(state);
        drop(unstarted);
    }
}

/// A deterministic virtual-time simulation.
///
/// Spawn processes with [`Simulation::spawn`], then execute them to
/// completion with [`Simulation::run`]. See the crate docs for an example.
pub struct Simulation {
    core: Arc<Core>,
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Simulation { core: Core::new() }
    }

    /// Registers a simulated process starting at virtual time zero.
    ///
    /// The closure runs on a fiber of its own — a 2 MiB stack, mapped as
    /// it is touched, with a guard page below it — on the run's one OS
    /// thread, and executes only while the scheduler grants it the
    /// (unique) running slot. `RUST_MIN_STACK` does not size it. A process
    /// that starts a nested [`Simulation::run`] blocks until that run,
    /// on a thread of its own, completes.
    pub fn spawn<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        self.core.register(name, SimTime::ZERO, Box::new(f));
    }

    /// Runs all processes to completion and returns the final virtual time
    /// (the maximum clock over all processes).
    ///
    /// # Panics
    ///
    /// Panics if any process panicked or the simulation deadlocked; the
    /// original panic message is propagated.
    pub fn run(self) -> SimTime {
        match self.run_result() {
            Ok(t) => t,
            Err(msg) => panic!("simulation failed: {msg}"),
        }
    }

    /// Like [`Simulation::run`] but reports a process panic or deadlock as
    /// an `Err` carrying the original message instead of panicking — the
    /// entry point used by the schedule explorer, which must survive
    /// counterexample runs.
    pub fn run_result(self) -> Result<SimTime, String> {
        self.run_with_stats().0
    }

    /// [`Simulation::run_result`] plus the run's [`SchedStats`].
    ///
    /// The run takes a fresh OS thread, never the caller's, so a
    /// `thread_local!` a process writes is gone when the run ends: the
    /// next run on the same caller thread reads its default.
    pub fn run_with_stats(self) -> (Result<SimTime, String>, SchedStats) {
        let core = Arc::clone(&self.core);
        let run = std::thread::Builder::new()
            .name("simnet-run".to_string())
            .spawn(move || core.run_loop())
            .expect("failed to spawn the simulation thread");
        if let Err(payload) = run.join() {
            std::panic::resume_unwind(payload);
        }
        let state = self.core.state.lock();
        let result = match &state.panic_message {
            Some(msg) => Err(msg.clone()),
            None => Ok(SimTime::from_nanos(
                state.procs.iter().map(|p| p.clock.load(Ordering::Relaxed)).max().unwrap_or(0),
            )),
        };
        (result, state.stats)
    }

    /// Registers a model-state fingerprint sampled by the schedule explorer
    /// after each run (FNV hash of whatever shared state the model cares
    /// about, e.g. an SMB server's `state_hash`); together with the scheduler
    /// fingerprint it forms the terminal state the explorer counts and
    /// replay compares. Unused outside exploration.
    pub fn set_state_probe<F: Fn() -> u64 + Send + 'static>(&mut self, f: F) {
        self.core.set_probe(Box::new(f));
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// This simulation's happens-before race detector: every
    /// [`SimContext::access`] of the run records into it. Take the handle
    /// before [`Simulation::run`] to relax halting or read the reports
    /// afterwards.
    #[cfg(feature = "race-detect")]
    pub fn race_detector(&self) -> Arc<crate::race::RaceDetector> {
        Arc::clone(&self.core.race)
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation").field("procs", &self.core.state.lock().procs.len()).finish()
    }
}

/// Handle given to each simulated process for interacting with virtual time.
///
/// A `SimContext` must only be used from the process it was handed to.
///
/// **Do not hold an OS lock across a virtual-time block.** Only one
/// process runs at a time, so a process that parks (via `sleep`, a channel
/// `recv`, or a resource transfer) while holding a real `Mutex` guard will
/// deadlock the run as soon as another process contends on that mutex.
/// Acquire real locks only for short critical sections that contain no
/// virtual-time operations.
///
/// **Never yield while borrowing a thread-local.** Every process of a run
/// is a fiber on the run's one OS thread, so they all see the same
/// `thread_local!` values: a `RefCell` borrow held across a block is
/// still held when the next process touches it, and a value set before a
/// block may be another process's afterwards. Take a thread-local, use
/// it and let go without a virtual-time operation in between
/// (`tensor::workspace`, `tensor::parallel` and `tensor::simd` do).
#[derive(Clone)]
pub struct SimContext {
    pub(crate) core: Arc<Core>,
    pub(crate) pid: Pid,
    /// The process's clock, which only a grant moves: the process reads it
    /// while it runs, when no grant can happen, so it needs no lock.
    clock: Arc<AtomicU64>,
}

impl SimContext {
    /// Current virtual time of this process.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.load(Ordering::Relaxed))
    }

    /// Name of this process.
    pub fn name(&self) -> String {
        self.core.state.lock().procs[self.pid].name.clone()
    }

    /// Process id, unique within the simulation.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Advances virtual time by `dur`, yielding to earlier processes.
    pub fn sleep(&self, dur: SimDuration) {
        self.sleep_until(self.now() + dur);
    }

    /// Advances virtual time to `at` (no-op if already later), yielding.
    pub fn sleep_until(&self, at: SimTime) {
        self.core.yield_at(self.core.state.lock(), self.pid, at);
    }

    /// Yields without advancing time, letting same-time processes interleave
    /// deterministically.
    pub fn yield_now(&self) {
        self.sleep_until(SimTime::ZERO);
    }

    /// Spawns a new simulated process starting at the caller's current time.
    pub fn spawn<F>(&self, name: &str, f: F)
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        let pid = self.core.register(name, self.now(), Box::new(f));
        #[cfg(feature = "race-detect")]
        self.core.vc_seed_child(self.pid, pid);
        #[cfg(not(feature = "race-detect"))]
        let _ = pid;
    }

    /// Announces one shared-state access — the single record both
    /// verification tools read. The schedule explorer (see
    /// [`crate::explore`]) takes it as the step's footprint: two steps
    /// whose accesses touch disjoint `(region, offset..offset+len)` ranges
    /// — or only read overlapping ones — commute, so it never re-runs
    /// their reorderings. Under `race-detect` the simulation's
    /// `race::RaceDetector` also checks it, labelled `site`, against the
    /// region's history. Otherwise a no-op outside exploration;
    /// models with shared state not covered by instrumented channels/RDMA
    /// ops should call this (or disable independence pruning).
    ///
    /// # Panics
    ///
    /// Under `race-detect`, panics (failing the simulation with both sites
    /// named) if the access races and the detector halts on races.
    pub fn access(
        &self,
        region: u64,
        offset: usize,
        len: usize,
        kind: AccessKind,
        site: &'static str,
    ) {
        self.core.note_event(SchedEvent::Access { region, offset, len, kind });
        #[cfg(feature = "race-detect")]
        self.core.race.record(self, region, offset, len, kind, site);
        #[cfg(not(feature = "race-detect"))]
        let _ = site;
    }
}

impl std::fmt::Debug for SimContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimContext").field("pid", &self.pid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        assert_eq!(Simulation::new().run(), SimTime::ZERO);
    }

    #[test]
    fn single_process_advances_time() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.sleep(SimDuration::from_millis(5));
            assert_eq!(ctx.now().as_millis_f64(), 5.0);
        });
        assert_eq!(sim.run().as_millis_f64(), 5.0);
    }

    #[test]
    fn processes_interleave_in_time_order() {
        let log: Arc<PMutex<Vec<(String, u64)>>> = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..3 {
                    ctx.sleep(SimDuration::from_millis(step));
                    log.lock().push((name.to_string(), ctx.now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run();
        let got = log.lock().clone();
        // Events must be sorted by time: a@3, b@5, a@6, a@9, b@10, b@15.
        let times: Vec<u64> = got.iter().map(|(_, t)| *t).collect();
        assert_eq!(times, vec![3, 5, 6, 9, 10, 15]);
    }

    #[test]
    fn ties_break_by_spawn_order_deterministically() {
        let run_once = || {
            let log: Arc<PMutex<Vec<String>>> = Arc::new(PMutex::new(Vec::new()));
            let mut sim = Simulation::new();
            for name in ["x", "y", "z"] {
                let log = Arc::clone(&log);
                sim.spawn(name, move |ctx| {
                    ctx.sleep(SimDuration::from_millis(1));
                    log.lock().push(name.to_string());
                });
            }
            sim.run();
            let result = log.lock().clone();
            result
        };
        let a = run_once();
        for _ in 0..5 {
            assert_eq!(run_once(), a);
        }
        assert_eq!(a, vec!["x", "y", "z"]);
    }

    #[test]
    fn dynamic_spawn_starts_at_parent_time() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            ctx.sleep(SimDuration::from_millis(10));
            let t0 = ctx.now();
            ctx.spawn("child", move |cctx| {
                assert_eq!(cctx.now(), t0);
                cctx.sleep(SimDuration::from_millis(1));
            });
        });
        assert_eq!(sim.run().as_millis_f64(), 11.0);
    }

    #[test]
    #[should_panic(expected = "simulation failed")]
    fn process_panic_propagates() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_| panic!("boom"));
        sim.run();
    }

    #[test]
    fn yield_now_does_not_advance_time() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            let t = ctx.now();
            ctx.yield_now();
            assert_eq!(ctx.now(), t);
        });
        sim.run();
    }

    // --- timed-wait pull-forward invariants (`block_until` vs `wake`) ---
    //
    // The comment on `Core::wake` documents that a timed waiter parked at
    // its deadline may be pulled earlier by a wake but never pushed later,
    // and that a wake racing ahead of the park is dropped (the deadline
    // still fires). These are the seeded lost-wakeup regressions for that
    // contract.

    #[test]
    fn wake_pulls_timed_wait_forward() {
        let mut sim = Simulation::new();
        sim.spawn("waiter", |ctx| {
            let deadline = ctx.now() + SimDuration::from_millis(100);
            ctx.core.block_until(ctx.pid, deadline);
            // Woken by the 5 ms signal, not the 100 ms deadline.
            assert_eq!(ctx.now().as_millis_f64(), 5.0);
        });
        sim.spawn("waker", |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            ctx.core.wake(0, ctx.now());
        });
        assert_eq!(sim.run().as_millis_f64(), 5.0);
    }

    #[test]
    fn early_wake_before_park_is_dropped_not_lost_forever() {
        let mut sim = Simulation::new();
        // The waker is pid 0, so at the t=0 tie it runs *before* the waiter
        // has parked: the wake targets a plain Runnable process and must be
        // dropped (not queued). The seeded lost wakeup is harmless only
        // because the timed wait still fires at its deadline.
        sim.spawn("waker", |ctx| {
            ctx.core.wake(1, ctx.now());
        });
        sim.spawn("waiter", |ctx| {
            let deadline = ctx.now() + SimDuration::from_millis(10);
            ctx.core.block_until(ctx.pid, deadline);
            assert_eq!(ctx.now().as_millis_f64(), 10.0);
        });
        assert_eq!(sim.run().as_millis_f64(), 10.0);
    }

    #[test]
    fn wake_never_pushes_a_timed_wait_later() {
        let mut sim = Simulation::new();
        sim.spawn("waiter", |ctx| {
            let deadline = ctx.now() + SimDuration::from_millis(10);
            ctx.core.block_until(ctx.pid, deadline);
            assert_eq!(ctx.now().as_millis_f64(), 10.0);
        });
        sim.spawn("waker", |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            // A wake targeted past the deadline must not postpone the grant.
            ctx.core.wake(0, SimTime::ZERO + SimDuration::from_millis(50));
        });
        assert_eq!(sim.run().as_millis_f64(), 10.0);
    }

    #[test]
    fn many_processes_complete() {
        let counter = Arc::new(PMutex::new(0usize));
        let mut sim = Simulation::new();
        for i in 0..32 {
            let counter = Arc::clone(&counter);
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..10 {
                    ctx.sleep(SimDuration::from_micros(i as u64 + 1));
                }
                *counter.lock() += 1;
            });
        }
        sim.run();
        assert_eq!(*counter.lock(), 32);
    }
}
