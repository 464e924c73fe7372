//! The cooperative virtual-time scheduler.
//!
//! Exactly one simulated process runs at any instant: the one whose wake-up
//! time is globally minimal (ties broken by process id). Because every
//! state transition happens under a single lock and the running process is
//! unique, resource reservations and message sends occur in non-decreasing
//! virtual-time order, which makes the whole simulation deterministic for a
//! given program — independent of OS thread scheduling.
//!
//! Each process parks its OS thread on a condvar of its own, and a grant
//! wakes exactly the granted thread (DESIGN.md §5k); only an abort — a
//! process panic or a detected deadlock — wakes everyone.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::explore::{ChoiceKind, ChoiceRecord, SchedEvent, StepRecord};
use crate::trace::TraceEntry;
use crate::{AccessKind, SimDuration, SimTime};

/// Identifies a simulated process within one [`Simulation`].
pub(crate) type Pid = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Ready to run at the contained virtual time.
    Runnable(SimTime),
    /// Currently executing on its OS thread.
    Running,
    /// Waiting for an external wake (channel message).
    Blocked,
    /// Completed (or panicked).
    Finished,
}

struct ProcSlot {
    name: String,
    clock: SimTime,
    status: Status,
    /// True while the process is parked in [`Core::block_until`]: it is
    /// recorded as `Runnable(deadline)` (so the deadlock detector never
    /// counts it as blocked) but an earlier [`Core::wake`] may pull the
    /// grant forward.
    timed_wait: bool,
    /// Where this process's OS thread parks while it is not `Running`;
    /// paired with the scheduler's state mutex and signalled only when this
    /// process is granted (or the simulation aborts).
    parked: Arc<Condvar>,
    /// This process's vector clock (one component per pid), advanced along
    /// synchronization edges for the happens-before race detector.
    #[cfg(feature = "race-detect")]
    vclock: Vec<u64>,
}

struct SchedState {
    procs: Vec<ProcSlot>,
    unfinished: usize,
    /// True once `run()` has performed the initial dispatch.
    started: bool,
    panic_message: Option<String>,
    stats: SchedStats,
}

/// Deterministic scheduler counters of one run (see
/// [`Simulation::run_with_stats`]): pure functions of the schedule, so they
/// repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduler grants: how often some process was handed the running slot.
    pub grants: u64,
    /// Grants that went straight back to the process that had just yielded
    /// (it was itself the earliest runnable); these park no OS thread.
    pub self_grants: u64,
    /// OS-thread wake-ups issued: one per grant to another process, plus one
    /// per process when a panic or deadlock aborts the run.
    pub wakes_issued: u64,
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

pub(crate) struct Core {
    state: Mutex<SchedState>,
    /// Signalled when the last process finishes or the run aborts; only
    /// [`Simulation::run_with_stats`] waits on it.
    done: Condvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
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
                unfinished: 0,
                started: false,
                panic_message: None,
                stats: SchedStats::default(),
            }),
            done: Condvar::new(),
            handles: Mutex::new(Vec::new()),
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
    /// clocks); combined with the model probe for state-space dedup.
    pub(crate) fn sched_hash(&self) -> u64 {
        let state = self.state.lock();
        let mut h = crate::explore::Fnv::new();
        for p in &state.procs {
            h.write_u64(p.clock.as_nanos());
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

    /// Picks the next process to run and grants it the running slot. Must
    /// be called with the state lock held and no process currently
    /// `Running`; `from` is the process giving up the slot (`None` for the
    /// initial dispatch by `run`).
    ///
    /// The hand-off is directed: returns the one parked thread to wake, for
    /// the caller to signal via [`Core::wake_parked`], or `None` when the
    /// grant went straight back to `from` and no thread needs waking.
    ///
    /// Once a panic or deadlock is recorded (see [`Core::abort`]), no
    /// further grants are made.
    #[must_use]
    fn dispatch(&self, state: &mut SchedState, from: Option<Pid>) -> Option<Arc<Condvar>> {
        if state.panic_message.is_some() {
            return None;
        }
        let next = state
            .procs
            .iter()
            .enumerate()
            .filter_map(|(pid, p)| match p.status {
                Status::Runnable(at) => Some((at, pid)),
                _ => None,
            })
            .min();
        match next {
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
                let slot = &mut state.procs[pid];
                slot.status = Status::Running;
                slot.clock = slot.clock.max(at);
                slot.timed_wait = false;
                state.stats.grants += 1;
                if from == Some(pid) {
                    state.stats.self_grants += 1;
                    None
                } else {
                    state.stats.wakes_issued += 1;
                    Some(Arc::clone(&state.procs[pid].parked))
                }
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
            None => {
                self.done.notify_one();
                None
            }
        }
    }

    /// Records the first panic or deadlock and broadcasts it: every parked
    /// process (and `run`) is woken so each observes the failure and unwinds
    /// — their wait loops panic on it, and a thread that parks later sees it
    /// before it waits. The only place that wakes more than one thread.
    fn abort(&self, state: &mut SchedState, msg: String) {
        if state.panic_message.is_some() {
            return;
        }
        state.panic_message = Some(msg);
        for p in &state.procs {
            p.parked.notify_one();
        }
        state.stats.wakes_issued += state.procs.len() as u64;
        self.done.notify_one();
    }

    /// Releases the state lock, then signals the thread [`Core::dispatch`]
    /// granted. Waking after the unlock means the woken thread never finds
    /// the mutex still held by its waker (which would cost it a second
    /// sleep), and a waker that is granted again before it got round to
    /// parking never sleeps at all. No wake-up can be lost: the grant itself
    /// was written under the lock, and [`Core::park`] re-checks it under the
    /// lock before every wait.
    fn wake_parked(state: MutexGuard<'_, SchedState>, granted: Option<Arc<Condvar>>) {
        drop(state);
        if let Some(parked) = granted {
            parked.notify_one();
        }
    }

    /// Parks the calling OS thread until `pid` is granted `Running`.
    ///
    /// # Panics
    ///
    /// Panics (to unwind the simulated process) if the simulation aborted.
    fn park(&self, pid: Pid) {
        let mut state = self.state.lock();
        let parked = Arc::clone(&state.procs[pid].parked);
        while state.procs[pid].status != Status::Running {
            if state.panic_message.is_some() {
                panic!("simulation aborted");
            }
            parked.wait(&mut state);
        }
    }

    /// Hands the running slot from `pid` (whose new status the caller has
    /// just written) to the next process and parks until `pid` is granted
    /// again. When `pid` is itself the earliest runnable this returns
    /// without touching any wait primitive.
    fn switch(&self, mut state: MutexGuard<'_, SchedState>, pid: Pid) {
        let granted = self.dispatch(&mut state, Some(pid));
        if state.procs[pid].status != Status::Running {
            Self::wake_parked(state, granted);
            self.park(pid);
        }
    }

    /// Makes `pid` runnable at `at` (never before its own clock) and yields.
    fn yield_at(&self, mut state: MutexGuard<'_, SchedState>, pid: Pid, at: SimTime) {
        debug_assert_eq!(state.procs[pid].status, Status::Running);
        let slot = &mut state.procs[pid];
        slot.status = Status::Runnable(slot.clock.max(at));
        self.switch(state, pid);
    }

    /// Parks the process until another process calls [`Core::wake`].
    pub(crate) fn block(&self, pid: Pid) {
        let mut state = self.state.lock();
        debug_assert_eq!(state.procs[pid].status, Status::Running);
        state.procs[pid].status = Status::Blocked;
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
        let slot = &mut state.procs[pid];
        match slot.status {
            Status::Blocked => {
                slot.status = Status::Runnable(slot.clock.max(at));
            }
            // A timed waiter parked at its deadline may be pulled earlier by
            // a wake (but never pushed later).
            Status::Runnable(deadline) if slot.timed_wait => {
                let woken = slot.clock.max(at);
                if woken < deadline {
                    slot.status = Status::Runnable(woken);
                }
            }
            Status::Finished => {}
            // The waker runs exclusively, so the target cannot be Running;
            // an already-Runnable target keeps its earlier wake time.
            _ => {}
        }
    }

    fn finish(&self, pid: Pid, panic_msg: Option<String>) {
        let mut state = self.state.lock();
        state.procs[pid].status = Status::Finished;
        state.unfinished -= 1;
        if let Some(msg) = panic_msg {
            self.abort(&mut state, msg);
        }
        let granted = self.dispatch(&mut state, Some(pid));
        Self::wake_parked(state, granted);
    }

    fn register(&self, name: &str, initial_clock: SimTime) -> Pid {
        let mut state = self.state.lock();
        let pid = state.procs.len();
        state.procs.push(ProcSlot {
            name: name.to_string(),
            clock: initial_clock,
            status: Status::Runnable(initial_clock),
            timed_wait: false,
            parked: Arc::new(Condvar::new()),
            #[cfg(feature = "race-detect")]
            vclock: Vec::new(),
        });
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

    fn start_thread<F>(self: &Arc<Self>, pid: Pid, name: String, f: F)
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        let core = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                core.park(pid);
                let ctx = SimContext { core: Arc::clone(&core), pid };
                let result = catch_unwind(AssertUnwindSafe(|| f(ctx)));
                let panic_msg = result.err().map(|e| {
                    e.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "process panicked".to_string())
                });
                core.finish(pid, panic_msg);
            })
            .expect("failed to spawn simulation thread");
        self.handles.lock().push(handle);
    }
}

/// A deterministic virtual-time simulation.
///
/// Spawn processes with [`Simulation::spawn`], then execute them to
/// completion with [`Simulation::run`]. See the crate docs for an example.
pub struct Simulation {
    core: Arc<Core>,
    #[allow(clippy::type_complexity)]
    pending: Vec<(Pid, String, Box<dyn FnOnce(SimContext) + Send + 'static>)>,
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Simulation { core: Core::new(), pending: Vec::new() }
    }

    /// Registers a simulated process starting at virtual time zero.
    ///
    /// The closure runs on its own OS thread but executes only while the
    /// scheduler grants it the (unique) running slot.
    pub fn spawn<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        let pid = self.core.register(name, SimTime::ZERO);
        self.pending.push((pid, name.to_string(), Box::new(f)));
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
    pub fn run_with_stats(mut self) -> (Result<SimTime, String>, SchedStats) {
        for (pid, name, f) in self.pending.drain(..) {
            self.core.start_thread(pid, name, f);
        }
        {
            let mut state = self.core.state.lock();
            if !state.started {
                state.started = true;
                if let Some(parked) = self.core.dispatch(&mut state, None) {
                    parked.notify_one();
                }
            }
            while state.unfinished > 0 && state.panic_message.is_none() {
                self.core.done.wait(&mut state);
            }
        }
        // Join every thread (they all exit once finished or poisoned).
        let handles = std::mem::take(&mut *self.core.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        let state = self.core.state.lock();
        let result = match &state.panic_message {
            Some(msg) => Err(msg.clone()),
            None => Ok(state.procs.iter().map(|p| p.clock).max().unwrap_or(SimTime::ZERO)),
        };
        (result, state.stats)
    }

    /// Registers a model-state fingerprint sampled by the schedule explorer
    /// after each run (FNV hash of whatever shared state the model cares
    /// about, e.g. an SMB server's `state_hash`); together with the scheduler
    /// fingerprint it powers state-space dedup. Unused outside exploration.
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
        f.debug_struct("Simulation").field("pending", &self.pending.len()).finish()
    }
}

/// Handle given to each simulated process for interacting with virtual time.
///
/// A `SimContext` must only be used from the process it was handed to.
///
/// **Do not hold an OS lock across a virtual-time block.** Only one
/// process runs at a time, so a process that parks (via `sleep`, a channel
/// `recv`, or a resource transfer) while holding a real `Mutex` guard will
/// deadlock the scheduler as soon as another process contends on that
/// mutex. Acquire real locks only for short critical sections that contain
/// no virtual-time operations.
#[derive(Clone)]
pub struct SimContext {
    pub(crate) core: Arc<Core>,
    pub(crate) pid: Pid,
}

impl SimContext {
    /// Current virtual time of this process.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().procs[self.pid].clock
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
        let state = self.core.state.lock();
        let until = state.procs[self.pid].clock + dur;
        self.core.yield_at(state, self.pid, until);
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
        let pid = self.core.register(name, self.now());
        #[cfg(feature = "race-detect")]
        self.core.vc_seed_child(self.pid, pid);
        self.core.start_thread(pid, name.to_string(), f);
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
