//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer, and carry two clocks: *virtual* time (`ctx.now()`
//! of the calling simulated process) and *host* wall time. Every simulated
//! process runs on its own OS thread, so the span that caused another is
//! simply the innermost span still open on the same thread.
//!
//! Host time needs care in a cooperative simulator: a call that blocks in
//! virtual time (a sleep, an SMB transfer) hands the host CPU to other
//! simulated processes, so its host interval includes their work. Such
//! spans are only trusted for their virtual duration; host cost is taken
//! either from leaf spans that never block (a DNN layer, a memcpy) or, for
//! a blocking span, from its *busy prefix* — entry until its last
//! non-blocking child returns. A span blocked if and only if virtual time
//! advanced inside it.

use parking_lot::Mutex;
use shmcaffe_simnet::SimContext;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `trainer.compute`.
    pub name: &'static str,
    /// Worker / client id (the Chrome trace `tid`).
    pub worker: u32,
    /// Index of the span that was open on this thread at entry.
    pub parent: Option<usize>,
    /// Host start/end in nanoseconds since the tracer was created.
    pub host: (u64, u64),
    /// Virtual start/end in nanoseconds, when a `SimContext` was at hand.
    pub virt: Option<(u64, u64)>,
    /// False until `exit` — spans never closed are dropped from summaries.
    pub closed: bool,
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Shared recorder; clone the `Arc` into every wrapper.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Creates an empty recorder whose host clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })
    }

    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on the calling thread and returns its id.
    pub fn enter(&self, name: &'static str, worker: u32, ctx: Option<&SimContext>) -> usize {
        let virt = ctx.map(|c| {
            let t = c.now().as_nanos();
            (t, t)
        });
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let host = self.host_now();
        let mut spans = self.spans.lock();
        spans.push(Span { name, worker, parent, host: (host, host), virt, closed: false });
        let id = spans.len() - 1;
        drop(spans);
        OPEN.with(|o| o.borrow_mut().push(id));
        id
    }

    /// Closes span `id` (which must be open on the calling thread).
    pub fn exit(&self, id: usize, ctx: Option<&SimContext>) {
        let host = self.host_now();
        let virt_end = ctx.map(|c| c.now().as_nanos());
        OPEN.with(|o| o.borrow_mut().retain(|&open| open != id));
        let mut spans = self.spans.lock();
        let span = &mut spans[id];
        span.host.1 = host;
        if let (Some(v), Some(end)) = (span.virt.as_mut(), virt_end) {
            v.1 = end;
        }
        span.closed = true;
    }

    /// Forgets span `id` without closing it (an interval that turned out
    /// not to be the operation it was opened for).
    pub fn abandon(&self, id: usize) {
        OPEN.with(|o| o.borrow_mut().retain(|&open| open != id));
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &self,
        name: &'static str,
        worker: u32,
        ctx: Option<&SimContext>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, worker, ctx);
        let out = f();
        self.exit(id, ctx);
        out
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }
}

/// Per-name totals over a span list, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Closed spans of this name.
    pub count: u64,
    /// Summed host durations.
    pub host: u64,
    /// Host self time: duration minus the part covered by child spans.
    pub host_self: u64,
    /// Host time the span's own thread was demonstrably running: the
    /// whole duration of a span that never blocked; for one that did (its
    /// virtual clock advanced), entry until its last child returned — zero
    /// without children, because nothing outside can tell its work from
    /// the other processes' that ran while it slept.
    pub host_busy: u64,
    /// Summed virtual durations (spans recorded with a context).
    pub virt: u64,
    /// Virtual self time.
    pub virt_self: u64,
}

/// Aggregates closed spans by name, computing self time as duration minus
/// the direct children's durations (children are strictly nested, so they
/// never overlap each other).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_host = vec![0u64; spans.len()];
    let mut child_virt = vec![0u64; spans.len()];
    let mut last_child_end = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.closed) {
        let Some(p) = s.parent else { continue };
        child_host[p] += s.host.1 - s.host.0;
        child_virt[p] += s.virt.map_or(0, |(a, b)| b - a);
        last_child_end[p] = last_child_end[p].max(s.host.1);
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.closed) {
        let t = out.entry(s.name).or_default();
        let host = s.host.1 - s.host.0;
        let virt = s.virt.map_or(0, |(a, b)| b - a);
        t.count += 1;
        t.host += host;
        t.host_self += host.saturating_sub(child_host[i]);
        t.host_busy += match (virt > 0, last_child_end[i]) {
            (false, _) => host,
            (true, 0) => 0,
            (true, end) => end.min(s.host.1) - s.host.0,
        };
        t.virt += virt;
        t.virt_self += virt.saturating_sub(child_virt[i]);
    }
    out
}

/// Renders the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). Process 1 is the virtual-time timeline, process 2 the
/// host-time timeline; threads are workers.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"virtual time\"}},\n",
    );
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"host time\"}}",
    );
    let mut event = |pid: u32, s: &Span, (start, end): (u64, u64), id: usize| {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{id},\"parent\":{}}}}}",
            s.name,
            s.worker,
            start as f64 / 1e3,
            (end - start) as f64 / 1e3,
            s.parent.map_or(-1, |p| p as i64),
        );
    };
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.closed) {
        if let Some(v) = s.virt {
            event(1, s, v, id);
        }
        event(2, s, s.host, id);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        host: (u64, u64),
        virt: Option<(u64, u64)>,
    ) -> Span {
        Span { name, worker: 0, parent, host, virt, closed: true }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("outer", None, (0, 100), Some((0, 1000))),
            span("leaf", Some(0), (10, 30), None),
            span("leaf", Some(0), (40, 70), Some((0, 400))),
            span("inner", Some(2), (45, 55), Some((100, 200))),
        ];
        let t = summarize(&spans);
        assert_eq!(t["outer"].host, 100);
        assert_eq!(t["outer"].host_self, 50, "100 - (20 + 30)");
        assert_eq!(t["outer"].host_busy, 70, "blocked: entry until the last child returned");
        assert_eq!(t["outer"].virt_self, 600, "host-only children cover no virtual time");
        assert_eq!(t["leaf"].count, 2);
        assert_eq!(t["leaf"].host, 50);
        assert_eq!(t["leaf"].host_self, 40, "only the second leaf has a child");
        assert_eq!(t["leaf"].virt, 400);
        assert_eq!(t["leaf"].virt_self, 300);
        assert_eq!(t["inner"].host_busy, 0, "blocked without children: unattributable");
        assert_eq!(t["leaf"].host_busy, 20 + 15, "never blocked: whole; blocked: until its child");
    }

    #[test]
    fn unclosed_spans_are_ignored() {
        let mut open = span("never_closed", None, (0, 0), None);
        open.closed = false;
        let spans = vec![open, span("child", Some(0), (1, 5), None)];
        let t = summarize(&spans);
        assert!(!t.contains_key("never_closed"));
        assert_eq!(t["child"].host, 4);
        assert_eq!(chrome_trace(&spans).matches("\"ph\":\"X\"").count(), 1);
    }

    #[test]
    fn recorder_links_parents_per_thread() {
        let tracer = Tracer::new();
        let outer = tracer.enter("a", 1, None);
        tracer.scope("b", 1, None, || {});
        let dropped = tracer.enter("c", 1, None);
        tracer.abandon(dropped);
        tracer.scope("d", 1, None, || {});
        tracer.exit(outer, None);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[3].parent, Some(outer), "an abandoned span causes nothing");
        assert!(!spans[dropped].closed);
        assert!(spans[outer].host.1 >= spans[3].host.1);
        let json = chrome_trace(&spans);
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3, "host-only spans: one event each");
    }
}
