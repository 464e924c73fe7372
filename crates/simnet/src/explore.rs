//! `schedcheck`: systematic schedule exploration for simulations.
//!
//! The cooperative scheduler runs exactly one deterministic interleaving per
//! program: the globally-minimal wake time with pid tie-break, last-in wake
//! order, front-of-queue delivery. That is perfect for reproducibility but
//! means every concurrency suite only ever observes a *single* schedule.
//! This module turns the three places where that schedule was arbitrary into
//! explicit choice points and explores the alternatives, loom/shuttle style:
//!
//! * **Tie** — which of the processes runnable at the minimal wake time is
//!   dispatched (default: lowest pid).
//! * **Wake** — which parked receiver a channel send wakes (default: the
//!   most recently parked, matching the historical `waiters.pop()`).
//! * **Deliver** — which sender's message a receive takes when several are
//!   already in flight within the delivery window (default: the oldest).
//!
//! Every run records its choices as a [`ScheduleTrace`]; forcing a recorded
//! trace back through [`Simulation::replay`] reproduces the run
//! bit-identically. [`Simulation::explore`] drives a depth-first search over
//! trace prefixes under [`ExploreBounds`] (schedule budget, depth and
//! preemption bounds), prunes reorderings of provably-commuting steps using
//! the same access-conflict relation as the vector-clock race detector
//! (disjoint region ranges and read-read overlaps commute; see
//! [`AccessKind::commutes_with`]), counts distinct terminal states by FNV
//! fingerprint, and greedily minimizes the first counterexample before
//! writing it to a `.sched` file.
//!
//! Pruning soundness contract: independence is judged from *recorded*
//! events — instrumented channel operations, RDMA region transfers, and
//! explicit [`crate::SimContext::access`] annotations. Shared state a
//! model touches outside those (a bare `Arc<Mutex<_>>`, say) is invisible,
//! so either annotate it or set [`ExploreBounds::prune_independent`] to
//! `false`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use crate::sched::Pid;
use crate::trace::{ScheduleTrace, TraceEntry};
use crate::{AccessKind, SimTime, Simulation};

/// The kind of a scheduling choice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChoiceKind {
    /// Equal-time dispatch tie: which runnable process goes next.
    Tie,
    /// Channel send with several parked receivers: which one is woken.
    Wake,
    /// Channel receive with several in-flight senders: whose message lands.
    Deliver,
}

impl ChoiceKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ChoiceKind::Tie => "tie",
            ChoiceKind::Wake => "wake",
            ChoiceKind::Deliver => "deliver",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "tie" => Some(ChoiceKind::Tie),
            "wake" => Some(ChoiceKind::Wake),
            "deliver" => Some(ChoiceKind::Deliver),
            _ => None,
        }
    }
}

/// A shared-state event recorded against the step that performed it.
#[derive(Debug, Clone)]
pub(crate) enum SchedEvent {
    /// A region access (RDMA transfer, SMB accumulate, or an explicit
    /// [`crate::SimContext::access`] annotation).
    Access { region: u64, offset: usize, len: usize, kind: AccessKind },
    /// A channel operation (send or receive) on channel `chan`. Any two
    /// operations on the same channel are order-sensitive (queue contents,
    /// wake targets), so the relation needs no send/recv distinction.
    Chan { chan: u64 },
}

fn events_independent(a: &SchedEvent, b: &SchedEvent) -> bool {
    match (a, b) {
        (
            SchedEvent::Access { region: r1, offset: o1, len: l1, kind: k1 },
            SchedEvent::Access { region: r2, offset: o2, len: l2, kind: k2 },
        ) => r1 != r2 || o1 + l1 <= *o2 || o2 + l2 <= *o1 || k1.commutes_with(*k2),
        (SchedEvent::Chan { chan: c1 }, SchedEvent::Chan { chan: c2 }) => c1 != c2,
        _ => true,
    }
}

fn blocks_independent(a: &[SchedEvent], b: &[SchedEvent]) -> bool {
    a.iter().all(|x| b.iter().all(|y| events_independent(x, y)))
}

/// One resolved choice point, as recorded during a run.
#[derive(Debug, Clone)]
pub(crate) struct ChoiceRecord {
    pub kind: ChoiceKind,
    pub arity: u16,
    pub chosen: u16,
    pub default: u16,
    /// For `Tie`: the runnable candidate pids, in alternative order.
    pub candidates: Vec<Pid>,
    /// Index of the step this choice granted (`Tie`) or was taken in.
    pub step: usize,
}

impl ChoiceRecord {
    fn entry(&self) -> TraceEntry {
        TraceEntry { kind: self.kind, arity: self.arity, chosen: self.chosen }
    }
}

/// One scheduler grant and the shared-state events it performed.
#[derive(Debug, Clone)]
pub(crate) struct StepRecord {
    pub pid: Pid,
    pub events: Vec<SchedEvent>,
}

/// Search bounds for [`Simulation::explore`].
#[derive(Debug, Clone)]
pub struct ExploreBounds {
    /// Hard budget on the number of schedules run (including minimization
    /// re-runs after a failure).
    pub max_schedules: usize,
    /// Choice points past this depth are not branched on (they still take
    /// their defaults).
    pub max_depth: usize,
    /// Maximum number of non-default choices per schedule — the classic
    /// preemption bound; most real bugs need only 1–2.
    pub max_preemptions: usize,
    /// Skip alternatives whose reordering provably commutes with the
    /// explored schedule (sleep-set/DPOR pruning over recorded footprints).
    pub prune_independent: bool,
    /// Where to write the minimized `.sched` counterexample, if any.
    pub trace_path: Option<PathBuf>,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            max_schedules: 256,
            max_depth: 64,
            max_preemptions: 4,
            prune_independent: true,
            trace_path: None,
        }
    }
}

impl ExploreBounds {
    /// Bounds for exhaustive small-scope certification: no depth or
    /// preemption bound, just the schedule budget as a safety net.
    /// [`ExploreReport::complete`] then reports whether the whole schedule
    /// space (modulo pruning) was covered.
    pub fn exhaustive(max_schedules: usize) -> Self {
        ExploreBounds {
            max_schedules,
            max_depth: usize::MAX,
            max_preemptions: usize::MAX,
            ..ExploreBounds::default()
        }
    }
}

/// A minimized counterexample found by [`Simulation::explore`].
#[derive(Debug)]
pub struct FailureReport {
    /// The panic/assertion message of the failing run.
    pub message: String,
    /// Minimized schedule reproducing the failure via
    /// [`Simulation::replay`].
    pub trace: ScheduleTrace,
    /// Terminal state fingerprint of the failing run (replay must match).
    pub state_hash: u64,
    /// Path the `.sched` file was written to, when
    /// [`ExploreBounds::trace_path`] was set and the write succeeded.
    pub trace_file: Option<PathBuf>,
}

/// Outcome of a [`Simulation::explore`] search.
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Schedules actually run (including minimization re-runs).
    pub schedules: usize,
    /// Whether the bounded search exhausted its frontier: no budget,
    /// depth or preemption truncation, and no failure cut it short.
    pub complete: bool,
    /// Deepest choice-point count observed in a single run.
    pub max_depth_seen: usize,
    /// Alternatives skipped because their reordering provably commutes.
    pub pruned_independent: usize,
    /// Alternatives skipped by the depth/preemption bounds.
    pub bounded_out: usize,
    /// Distinct terminal-state fingerprints observed.
    pub distinct_states: usize,
    /// First failure found, minimized — `None` means every explored
    /// schedule passed.
    pub failure: Option<FailureReport>,
}

impl ExploreReport {
    /// How many schedules a naive enumeration (same bounds, no pruning)
    /// would have run: every pruned alternative is at least one schedule.
    pub fn naive_schedules(&self) -> usize {
        self.schedules + self.pruned_independent
    }

    /// `true` when the search covered its whole bounded space cleanly.
    pub fn certified(&self) -> bool {
        self.complete && self.failure.is_none()
    }
}

/// Outcome of replaying a recorded schedule.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Final virtual time, or the failure message the schedule reproduces.
    /// Replay divergence (a stale trace or nondeterministic model) is
    /// reported as an error mentioning "diverged".
    pub result: Result<SimTime, String>,
    /// Terminal state fingerprint of the replayed run.
    pub state_hash: u64,
    /// The full choice record of the replayed run (a superset of the forced
    /// trace when the trace was trimmed to non-default choices).
    pub trace: ScheduleTrace,
}

struct RunRecord {
    result: Result<SimTime, String>,
    choices: Vec<ChoiceRecord>,
    steps: Vec<StepRecord>,
    diverged: Option<String>,
    state_hash: u64,
}

fn run_forced<F: Fn(&mut Simulation)>(setup: &F, forced: &[TraceEntry]) -> RunRecord {
    let mut sim = Simulation::new();
    sim.core().set_explore(forced.to_vec());
    setup(&mut sim);
    let core = Arc::clone(sim.core());
    let result = sim.run_result();
    let (choices, steps, diverged) = core.take_explore();
    let mut h = Fnv::new();
    h.write_u64(core.sched_hash());
    h.write_u64(core.probe_value());
    if let Err(m) = &result {
        h.write_bytes(m.as_bytes());
    }
    RunRecord { result, choices, steps, diverged, state_hash: h.finish() }
}

/// Whether alternative `alt` of Tie choice `i` can be skipped: the
/// candidate's next step commutes with every step between the choice and
/// that step, so running it first reaches the same state the explored
/// schedule already certified.
fn prunable(rec: &RunRecord, i: usize, alt: usize) -> bool {
    let ch = &rec.choices[i];
    if ch.kind != ChoiceKind::Tie {
        return false;
    }
    let q = ch.candidates[alt];
    let s0 = ch.step;
    let Some(sq) = (s0 + 1..rec.steps.len()).find(|&s| rec.steps[s].pid == q) else {
        return false;
    };
    let q_events = &rec.steps[sq].events;
    rec.steps[s0..sq].iter().all(|b| blocks_independent(&b.events, q_events))
}

fn minimize<F: Fn(&mut Simulation)>(
    setup: &F,
    failing: RunRecord,
    budget: usize,
) -> (RunRecord, usize) {
    let Err(msg) = failing.result.clone() else { return (failing, 0) };
    let mut best = failing;
    let mut runs = 0;
    'outer: loop {
        for i in (0..best.choices.len()).rev() {
            let c = &best.choices[i];
            if c.chosen == c.default {
                continue;
            }
            if runs >= budget {
                break 'outer;
            }
            let mut cand: Vec<TraceEntry> = best.choices.iter().map(ChoiceRecord::entry).collect();
            cand[i].chosen = c.default;
            let r = run_forced(setup, &cand);
            runs += 1;
            if r.diverged.is_none() && matches!(&r.result, Err(m) if *m == msg) {
                best = r;
                // Indices may have shifted; restart the scan.
                continue 'outer;
            }
        }
        break;
    }
    (best, runs)
}

/// Trims trailing default choices: replay fills them back in as defaults.
fn trimmed_trace(choices: &[ChoiceRecord]) -> ScheduleTrace {
    let keep = choices.iter().rposition(|c| c.chosen != c.default).map_or(0, |i| i + 1);
    ScheduleTrace { entries: choices[..keep].iter().map(ChoiceRecord::entry).collect() }
}

impl Simulation {
    /// Systematically explores alternative schedules of the simulation that
    /// `setup` constructs (processes, channels, servers, assertions — built
    /// fresh for every run), depth-first over replayable choice traces.
    ///
    /// Stops at the first failing schedule, minimizes it greedily (flipping
    /// non-default choices back to default while the same failure message
    /// reproduces) and reports it as a [`FailureReport`]; writes the
    /// `.sched` file when [`ExploreBounds::trace_path`] is set. Models can
    /// register an [`Simulation::set_state_probe`] inside `setup` to feed
    /// terminal-state fingerprints.
    pub fn explore<F: Fn(&mut Simulation)>(bounds: &ExploreBounds, setup: F) -> ExploreReport {
        let mut report = ExploreReport::default();
        let mut truncated = false;
        let mut seen = BTreeSet::new();
        let mut stack: Vec<Vec<TraceEntry>> = vec![Vec::new()];
        while let Some(prefix) = stack.pop() {
            if report.schedules >= bounds.max_schedules {
                truncated = true;
                break;
            }
            let rec = run_forced(&setup, &prefix);
            report.schedules += 1;
            report.max_depth_seen = report.max_depth_seen.max(rec.choices.len());
            if let Some(d) = &rec.diverged {
                report.failure = Some(FailureReport {
                    message: format!("nondeterministic model: {d}"),
                    trace: trimmed_trace(&rec.choices),
                    state_hash: rec.state_hash,
                    trace_file: None,
                });
                return report;
            }
            if rec.result.is_err() {
                let min_budget = bounds.max_schedules.saturating_sub(report.schedules).min(64);
                let (best, extra) = minimize(&setup, rec, min_budget);
                report.schedules += extra;
                let trace = trimmed_trace(&best.choices);
                let trace_file = bounds.trace_path.as_ref().and_then(|p| {
                    trace.save(p).ok()?;
                    Some(p.clone())
                });
                report.failure = Some(FailureReport {
                    message: best.result.err().unwrap_or_default(),
                    trace,
                    state_hash: best.state_hash,
                    trace_file,
                });
                return report;
            }
            seen.insert(rec.state_hash);
            report.distinct_states = seen.len();
            let depth = rec.choices.len().min(bounds.max_depth);
            if rec.choices[depth..].iter().any(|c| c.arity > 1) {
                truncated = true;
            }
            for i in prefix.len()..depth {
                let ch = &rec.choices[i];
                let base_preempt =
                    rec.choices[..i].iter().filter(|c| c.chosen != c.default).count();
                for alt in 0..ch.arity {
                    if alt == ch.chosen {
                        continue;
                    }
                    let preempt = base_preempt + usize::from(alt != ch.default);
                    if preempt > bounds.max_preemptions {
                        truncated = true;
                        report.bounded_out += 1;
                        continue;
                    }
                    if bounds.prune_independent && prunable(&rec, i, alt as usize) {
                        report.pruned_independent += 1;
                        continue;
                    }
                    let mut p: Vec<TraceEntry> =
                        rec.choices[..i].iter().map(ChoiceRecord::entry).collect();
                    p.push(TraceEntry { kind: ch.kind, arity: ch.arity, chosen: alt });
                    stack.push(p);
                }
            }
        }
        report.complete = !truncated && stack.is_empty();
        report
    }

    /// Replays a recorded schedule through a fresh instance of the model.
    ///
    /// With the same `setup` the explorer (or a previous run) used, the
    /// forced trace reproduces the original run bit-identically: same
    /// failure message, same terminal state fingerprint, same choice
    /// record. A trace that no longer matches the model reports a
    /// "diverged" error instead of silently exploring something else.
    pub fn replay<F: Fn(&mut Simulation)>(trace: &ScheduleTrace, setup: F) -> ReplayOutcome {
        let rec = run_forced(&setup, &trace.entries);
        let result = match rec.diverged {
            Some(d) => Err(format!("schedule replay diverged: {d}")),
            None => rec.result,
        };
        ReplayOutcome {
            result,
            state_hash: rec.state_hash,
            trace: ScheduleTrace { entries: rec.choices.iter().map(ChoiceRecord::entry).collect() },
        }
    }
}

/// Incremental FNV-1a hasher — the fingerprint primitive behind terminal
/// states and replay checks (also reusable by models implementing state
/// probes).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// Creates a hasher with the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// Mixes a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Mixes a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `ctx.access` is the whole announcement: the explorer finds it in
    /// the step that made it and, when compiled in, the detector is handed
    /// the same kind under the caller's site.
    #[test]
    fn one_access_reaches_the_trace_and_the_detector() {
        #[cfg(feature = "race-detect")]
        let detector = parking_lot::Mutex::new(None);
        let rec = run_forced(
            &|sim: &mut Simulation| {
                #[cfg(feature = "race-detect")]
                {
                    let det = sim.race_detector();
                    det.set_halt_on_race(false);
                    *detector.lock() = Some(det);
                }
                for name in ["a", "b"] {
                    sim.spawn(name, |ctx| {
                        ctx.access(9, 4, 8, AccessKind::AtomicWrite, "test::slot")
                    });
                }
                sim.spawn("c", |ctx| ctx.access(9, 8, 2, AccessKind::Read, "test::peek"));
            },
            &[],
        );
        assert_eq!(rec.result, Ok(SimTime::ZERO));
        let seen: Vec<_> = rec
            .steps
            .iter()
            .flat_map(|step| step.events.iter().map(move |ev| (step.pid, ev)))
            .map(|(pid, ev)| match ev {
                SchedEvent::Access { region, offset, len, kind } => {
                    (pid, *region, *offset, *len, *kind)
                }
                SchedEvent::Chan { .. } => panic!("no channel in this model"),
            })
            .collect();
        assert_eq!(
            seen,
            [
                (0, 9, 4, 8, AccessKind::AtomicWrite),
                (1, 9, 4, 8, AccessKind::AtomicWrite),
                (2, 9, 8, 2, AccessKind::Read),
            ]
        );
        #[cfg(feature = "race-detect")]
        {
            // Atomic/atomic is no race; the plain read against either
            // atomic write is, reported once per site pair.
            let reports = detector.lock().take().expect("setup ran").reports();
            assert_eq!(reports.len(), 1, "{reports:?}");
            let r = &reports[0];
            assert_eq!((r.region, r.earlier_pid, r.later_pid), (9, 0, 2));
            assert_eq!((r.earlier_kind, r.earlier_site), (AccessKind::AtomicWrite, "test::slot"));
            assert_eq!((r.later_kind, r.later_site), (AccessKind::Read, "test::peek"));
        }
    }
}
