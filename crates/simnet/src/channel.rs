//! Virtual-time message passing between simulated processes.
//!
//! A [`SimChannel`] is an unbounded MPMC queue whose `recv` blocks in
//! *virtual* time: the receiver is parked and the simulation proceeds with
//! other processes until a message arrives. Delivery is instantaneous in
//! virtual time (the receiver resumes no earlier than the send time);
//! transmission *cost* is modelled separately by
//! [`crate::resource::BandwidthResource`] reservations.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::explore::{ChoiceKind, SchedEvent};
use crate::sched::Pid;
use crate::{HbEdge, SimContext, SimDuration, SimTime};

/// Process-wide channel identity counter. The ids only serve the schedule
/// explorer's within-run independence relation (same channel ⇒ dependent),
/// so cross-run stability is not required — they never appear in traces or
/// state fingerprints.
static NEXT_CHANNEL_ID: AtomicU64 = AtomicU64::new(1);

struct Envelope<T> {
    sent_at: SimTime,
    /// Sending process, for the explorer's delivery-window grouping:
    /// per-sender FIFO is a delivery guarantee, so only the *first*
    /// in-flight message of each distinct sender is a delivery candidate.
    from: Pid,
    /// Released by the sender, acquired by the receiver on delivery — the
    /// channel send→recv happens-before edge of the race detector.
    edge: HbEdge,
    msg: T,
}

struct ChannelState<T> {
    queue: VecDeque<Envelope<T>>,
    waiters: Vec<Pid>,
}

/// An unbounded virtual-time channel.
///
/// Cloning produces another handle to the same channel; any process may send
/// or receive.
///
/// # Example
///
/// ```rust
/// use shmcaffe_simnet::{Simulation, SimDuration};
/// use shmcaffe_simnet::channel::SimChannel;
///
/// let mut sim = Simulation::new();
/// let ch: SimChannel<u32> = SimChannel::new("demo");
/// let tx = ch.clone();
/// sim.spawn("producer", move |ctx| {
///     ctx.sleep(SimDuration::from_millis(5));
///     tx.send(&ctx, 42);
/// });
/// sim.spawn("consumer", move |ctx| {
///     let v = ch.recv(&ctx);
///     assert_eq!(v, 42);
///     assert_eq!(ctx.now().as_millis_f64(), 5.0);
/// });
/// sim.run();
/// ```
pub struct SimChannel<T> {
    name: String,
    id: u64,
    state: Arc<Mutex<ChannelState<T>>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel { name: self.name.clone(), id: self.id, state: Arc::clone(&self.state) }
    }
}

impl<T> std::fmt::Debug for SimChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimChannel").field("name", &self.name).finish()
    }
}

impl<T: Send + 'static> SimChannel<T> {
    /// Creates a new empty channel. The name is used in diagnostics.
    pub fn new(name: &str) -> Self {
        SimChannel {
            name: name.to_string(),
            id: NEXT_CHANNEL_ID.fetch_add(1, Ordering::Relaxed),
            state: Arc::new(Mutex::new(ChannelState {
                queue: VecDeque::new(),
                waiters: Vec::new(),
            })),
        }
    }

    /// Picks which queued envelope a receive takes, honouring the schedule
    /// explorer's delivery choice point.
    ///
    /// The queue is sorted by send time (sends happen in non-decreasing
    /// virtual time), and any message sent no later than the delivery
    /// instant `max(now, oldest send time)` is equally "already in flight" —
    /// their arrival order at this receiver is a race the explorer may
    /// resolve either way, subject to per-sender FIFO. The default (index 0
    /// = the oldest message) reproduces the deterministic schedule.
    /// `limit` caps eligible send times (the deadline for `recv_timeout`,
    /// `now` for `try_recv`).
    fn pick_index(
        &self,
        ctx: &SimContext,
        st: &ChannelState<T>,
        limit: Option<SimTime>,
    ) -> Option<usize> {
        let front = st.queue.front()?;
        if limit.is_some_and(|l| front.sent_at > l) {
            return None;
        }
        if !ctx.core.is_exploring() {
            return Some(0);
        }
        let mut cap = front.sent_at.max(ctx.now());
        if let Some(l) = limit {
            cap = cap.min(l);
        }
        let mut cands: Vec<usize> = Vec::new();
        let mut senders: Vec<Pid> = Vec::new();
        for (i, env) in st.queue.iter().enumerate() {
            if env.sent_at > cap {
                break;
            }
            if !senders.contains(&env.from) {
                senders.push(env.from);
                cands.push(i);
            }
        }
        let pick = ctx.core.choose(ChoiceKind::Deliver, cands.len(), 0);
        Some(cands[pick])
    }

    /// Sends a message stamped with the sender's current virtual time and
    /// wakes one parked receiver (if any).
    ///
    /// Which receiver is woken when several are parked is a schedule choice
    /// point; the default (most recently parked) reproduces the historical
    /// deterministic schedule.
    pub fn send(&self, ctx: &SimContext, msg: T) {
        let now = ctx.now();
        let mut edge = HbEdge::default();
        edge.release(ctx);
        let env = Envelope { sent_at: now, from: ctx.pid(), edge, msg };
        ctx.core.note_event(SchedEvent::Chan { chan: self.id });
        let waiter = {
            let mut st = self.state.lock();
            st.queue.push_back(env);
            let n = st.waiters.len();
            if n == 0 {
                None
            } else {
                let idx = ctx.core.choose(ChoiceKind::Wake, n, n - 1);
                Some(st.waiters.remove(idx))
            }
        };
        if let Some(pid) = waiter {
            ctx.core.wake(pid, now);
        }
    }

    /// Receives the oldest message, blocking in virtual time until one is
    /// available. The receiver's clock advances to at least the send time.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks while waiting (no live process can
    /// ever send).
    pub fn recv(&self, ctx: &SimContext) -> T {
        loop {
            {
                let mut st = self.state.lock();
                if let Some(i) = self.pick_index(ctx, &st, None) {
                    let env = st.queue.remove(i).expect("candidate index in range");
                    drop(st);
                    ctx.core.note_event(SchedEvent::Chan { chan: self.id });
                    if env.sent_at > ctx.now() {
                        ctx.sleep_until(env.sent_at);
                    }
                    env.edge.acquire(ctx);
                    return env.msg;
                }
                st.waiters.push(ctx.pid());
            }
            // Park until a sender wakes us; loop in case another receiver
            // stole the message first.
            ctx.core.block(ctx.pid());
        }
    }

    /// Receives the oldest message, blocking in virtual time for at most
    /// `timeout`. Returns `None` once the deadline passes with no message
    /// sent at or before it (the caller's clock then rests at the deadline).
    ///
    /// Unlike [`SimChannel::recv`], a process parked here is never counted
    /// as blocked by the deadlock detector, so waiting on a dead peer times
    /// out instead of aborting the simulation.
    pub fn recv_timeout(&self, ctx: &SimContext, timeout: SimDuration) -> Option<T> {
        let deadline = ctx.now() + timeout;
        loop {
            {
                let mut st = self.state.lock();
                if let Some(i) = self.pick_index(ctx, &st, Some(deadline)) {
                    let env = st.queue.remove(i).expect("candidate index in range");
                    drop(st);
                    ctx.core.note_event(SchedEvent::Chan { chan: self.id });
                    if env.sent_at > ctx.now() {
                        ctx.sleep_until(env.sent_at);
                    }
                    env.edge.acquire(ctx);
                    return Some(env.msg);
                }
                if ctx.now() >= deadline {
                    return None;
                }
                st.waiters.push(ctx.pid());
            }
            ctx.core.block_until(ctx.pid(), deadline);
            // Scrub our waiter registration: if we were woken by the
            // deadline (not a sender), a stale entry would soak up a
            // future wake meant for a live receiver.
            let mut st = self.state.lock();
            if let Some(i) = st.waiters.iter().position(|&p| p == ctx.pid()) {
                st.waiters.remove(i);
            }
        }
    }

    /// Non-blocking receive of a message already sent at or before `now`.
    pub fn try_recv(&self, ctx: &SimContext) -> Option<T> {
        let env = {
            let mut st = self.state.lock();
            let now = ctx.now();
            match self.pick_index(ctx, &st, Some(now)) {
                Some(i) => st.queue.remove(i),
                None => None,
            }
        }?;
        ctx.core.note_event(SchedEvent::Chan { chan: self.id });
        env.edge.acquire(ctx);
        Some(env.msg)
    }

    /// Number of queued messages (for diagnostics).
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, Simulation};
    use parking_lot::Mutex as PMutex;

    #[test]
    fn recv_blocks_until_send_time() {
        let mut sim = Simulation::new();
        let ch: SimChannel<&'static str> = SimChannel::new("t");
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(7));
            tx.send(&ctx, "hello");
        });
        sim.spawn("rx", move |ctx| {
            assert_eq!(ch.recv(&ctx), "hello");
            assert_eq!(ctx.now().as_millis_f64(), 7.0);
        });
        sim.run();
    }

    #[test]
    fn messages_arrive_fifo() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u32> = SimChannel::new("fifo");
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            for i in 0..5 {
                tx.send(&ctx, i);
                ctx.sleep(SimDuration::from_millis(1));
            }
        });
        sim.spawn("rx", move |ctx| {
            for i in 0..5 {
                assert_eq!(ch.recv(&ctx), i);
            }
        });
        sim.run();
    }

    #[test]
    fn late_receiver_does_not_go_backwards_in_time() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u8> = SimChannel::new("late");
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            tx.send(&ctx, 1);
        });
        sim.spawn("rx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(100));
            ch.recv(&ctx);
            // Message was sent at t=0 but we were already at t=100.
            assert_eq!(ctx.now().as_millis_f64(), 100.0);
        });
        sim.run();
    }

    #[test]
    fn multiple_receivers_each_get_one() {
        let got = std::sync::Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let ch: SimChannel<u32> = SimChannel::new("mpmc");
        for i in 0..3 {
            let ch = ch.clone();
            let got = std::sync::Arc::clone(&got);
            sim.spawn(&format!("rx{i}"), move |ctx| {
                // NB: receive *before* taking the real mutex — holding an OS
                // lock across a virtual-time block would deadlock the
                // cooperative scheduler.
                let v = ch.recv(&ctx);
                got.lock().push(v);
            });
        }
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            for v in [10, 20, 30] {
                ctx.sleep(SimDuration::from_millis(1));
                tx.send(&ctx, v);
            }
        });
        sim.run();
        let mut v = got.lock().clone();
        v.sort();
        assert_eq!(v, vec![10, 20, 30]);
    }

    #[test]
    fn try_recv_only_sees_past_messages() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u8> = SimChannel::new("try");
        let tx = ch.clone();
        sim.spawn("p", move |ctx| {
            assert!(tx.try_recv(&ctx).is_none());
            tx.send(&ctx, 9);
            assert_eq!(tx.try_recv(&ctx), Some(9));
        });
        sim.run();
        assert!(ch.is_empty());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn recv_with_no_sender_deadlocks() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u8> = SimChannel::new("dead");
        sim.spawn("rx", move |ctx| {
            ch.recv(&ctx);
        });
        sim.run();
    }

    #[test]
    fn recv_timeout_expires_at_deadline_without_deadlock() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u8> = SimChannel::new("to");
        sim.spawn("rx", move |ctx| {
            let got = ch.recv_timeout(&ctx, SimDuration::from_millis(25));
            assert_eq!(got, None);
            assert_eq!(ctx.now().as_millis_f64(), 25.0);
        });
        sim.run();
    }

    #[test]
    fn recv_timeout_returns_early_message() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u8> = SimChannel::new("to2");
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(4));
            tx.send(&ctx, 7);
        });
        sim.spawn("rx", move |ctx| {
            let got = ch.recv_timeout(&ctx, SimDuration::from_millis(25));
            assert_eq!(got, Some(7));
            assert_eq!(ctx.now().as_millis_f64(), 4.0);
        });
        sim.run();
    }

    #[test]
    fn recv_timeout_ignores_messages_sent_after_deadline() {
        let mut sim = Simulation::new();
        let ch: SimChannel<u8> = SimChannel::new("to3");
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            ctx.sleep(SimDuration::from_millis(50));
            tx.send(&ctx, 9);
        });
        let rx = ch.clone();
        sim.spawn("rx", move |ctx| {
            assert_eq!(rx.recv_timeout(&ctx, SimDuration::from_millis(10)), None);
            assert_eq!(ctx.now().as_millis_f64(), 10.0);
            // The late message is still delivered to a subsequent receive.
            assert_eq!(rx.recv(&ctx), 9);
            assert_eq!(ctx.now().as_millis_f64(), 50.0);
        });
        sim.run();
    }

    #[test]
    fn recv_timeout_is_deterministic() {
        let run_once = || {
            let log: Arc<PMutex<Vec<(u8, u64)>>> = Arc::new(PMutex::new(Vec::new()));
            let mut sim = Simulation::new();
            let ch: SimChannel<u8> = SimChannel::new("det");
            let tx = ch.clone();
            sim.spawn("tx", move |ctx| {
                for v in [1u8, 2, 3] {
                    ctx.sleep(SimDuration::from_millis(8));
                    tx.send(&ctx, v);
                }
            });
            let log2 = Arc::clone(&log);
            sim.spawn("rx", move |ctx| loop {
                match ch.recv_timeout(&ctx, SimDuration::from_millis(5)) {
                    Some(v) => log2.lock().push((v, ctx.now().as_nanos())),
                    None => {
                        log2.lock().push((0, ctx.now().as_nanos()));
                        if ctx.now().as_millis_f64() >= 30.0 {
                            break;
                        }
                    }
                }
            });
            sim.run();
            let out = log.lock().clone();
            out
        };
        let a = run_once();
        assert_eq!(run_once(), a);
        assert!(a.iter().any(|&(v, _)| v == 3));
    }
}
