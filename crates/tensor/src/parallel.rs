//! Crate-level worker pool with deterministic work decomposition.
//!
//! Every parallel kernel in this workspace (gemm row panels, batch-parallel
//! convolution, elementwise ops, the SMB accumulate engine) dispatches
//! through this module. Two properties are load-bearing:
//!
//! 1. **Determinism.** Work is split at *fixed* points derived only from the
//!    problem size — never from the thread count — and every reduction
//!    combines per-chunk partials in fixed chunk order on the calling
//!    thread. The thread count therefore only decides *who* executes a
//!    chunk, never *what* a chunk computes or in which order partials are
//!    summed, so results are bit-identical at any `SHMCAFFE_THREADS`. This
//!    is what keeps the chaos test's bit-identical-rerun guarantee and the
//!    seeded convergence experiments valid under parallel execution.
//!
//! 2. **Persistence.** Workers are spawned once per process (first parallel
//!    call) and park on a crossbeam channel, so hot training loops pay no
//!    thread-spawn cost per layer. The pool size comes from the
//!    `SHMCAFFE_THREADS` environment variable, falling back to
//!    [`std::thread::available_parallelism`].
//!
//! Nested parallel regions (a batch-parallel conv task invoking a parallel
//! gemm) run inline on the worker: workers never re-dispatch, which both
//! avoids queue deadlock and keeps the decomposition identical to the
//! non-nested case.

use crossbeam::channel::{bounded, Sender};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// A unit of borrowed work executed by [`run_tasks`].
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// A `'static` job as stored in the worker channel.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    sender: Sender<Job>,
    /// Configured logical thread count (including the calling thread).
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set inside pool workers: parallel regions entered on a worker run
    /// inline (no nested dispatch).
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped thread-count override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> Option<usize> {
    std::env::var("SHMCAFFE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = env_threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        // Always keep at least one worker alive so with_threads(n > 1) can
        // exercise genuinely cross-thread schedules even on a single-core
        // host (an idle parked worker costs nothing).
        let workers = threads.saturating_sub(1).max(1);
        // Generous capacity: dispatches enqueue at most threads-1 jobs each,
        // and a full queue only ever blocks the dispatcher briefly (workers
        // drain it), never a worker — so no deadlock is possible.
        let (sender, receiver) = bounded::<Job>(4096);
        for w in 0..workers {
            let receiver = receiver.clone();
            std::thread::Builder::new()
                .name(format!("shmcaffe-worker-{w}"))
                .spawn(move || {
                    IS_WORKER.with(|f| f.set(true));
                    while let Ok(job) = receiver.recv() {
                        job();
                    }
                })
                .expect("spawn shmcaffe worker");
        }
        Pool { sender, threads }
    })
}

/// The configured logical thread count: `SHMCAFFE_THREADS` if set, else
/// [`std::thread::available_parallelism`] (minimum 1). This is the count the
/// pool was sized for, not a live measurement.
pub fn configured_threads() -> usize {
    pool().threads
}

/// The thread count parallel regions on the current thread will use:
/// a [`with_threads`] override if one is active, 1 inside a pool worker,
/// otherwise [`configured_threads`].
pub fn current_threads() -> usize {
    if IS_WORKER.with(|f| f.get()) {
        return 1;
    }
    OVERRIDE.with(|o| o.get()).unwrap_or_else(configured_threads)
}

/// Runs `f` with parallel regions decomposed for `threads` logical threads.
///
/// Because all split points are fixed, the *result* of any kernel is
/// bit-identical whatever `threads` is; this hook exists so tests can prove
/// that by executing genuinely different schedules in one process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let threads = threads.max(1);
    OVERRIDE.with(|o| {
        let prev = o.replace(Some(threads));
        let result = f();
        o.set(prev);
        result
    })
}

/// Executes a batch of independent borrowed tasks, distributing them over
/// the pool, and returns once every task has finished.
///
/// Tasks must write disjoint data (the usual pattern is one task per
/// `chunks_mut` chunk). Scheduling order is unspecified; callers must not
/// rely on it — determinism comes from tasks being independent and from
/// reductions combining per-task outputs in fixed order *after* this
/// returns.
///
/// # Panics
///
/// Propagates (as a fresh panic) if any task panicked.
pub fn run_tasks(tasks: Vec<Task<'_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    let threads = current_threads().min(n);
    if threads <= 1 {
        for task in tasks {
            task();
        }
        return;
    }

    // Round-robin the fixed task list into `threads` buckets. Bucket 0 runs
    // on the calling thread; the rest are shipped to the persistent workers.
    let mut buckets: Vec<Vec<Task<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        buckets[i % threads].push(task);
    }
    let local = buckets.remove(0);

    // Each remote bucket reports completion (and whether it panicked) on
    // this rendezvous channel; the dispatcher collects every report before
    // returning, which is what makes the lifetime erasure below sound.
    let remote = buckets.len();
    let (done_tx, done_rx) = bounded::<bool>(remote);
    let pool = pool();
    for bucket in buckets {
        let done_tx = done_tx.clone();
        let job: Task<'_> = Box::new(move || {
            let mut ok = true;
            for task in bucket {
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    ok = false;
                }
            }
            let _ = done_tx.send(ok);
        });
        // SAFETY: the job borrows data with lifetime 'scope (the borrows in
        // `tasks`). We erase that lifetime to enqueue it, which is sound
        // because this function does not return until done_rx has received
        // one report per enqueued job (including the local-panic path: local
        // tasks run under catch_unwind, so the collection loop below always
        // runs before any unwind leaves this frame). Workers drop a job as
        // soon as it completes, i.e. before its report is observable.
        #[allow(unsafe_code)]
        let job: Job = unsafe { std::mem::transmute::<Task<'_>, Job>(job) };
        assert!(pool.sender.send(job).is_ok(), "worker pool channel closed");
    }

    let mut local_panic = None;
    for task in local {
        if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
            local_panic = Some(p);
        }
    }
    let mut remote_ok = true;
    for _ in 0..remote {
        remote_ok &= done_rx.recv().expect("worker bucket reports completion");
    }
    if let Some(p) = local_panic {
        std::panic::resume_unwind(p);
    }
    assert!(remote_ok, "a shmcaffe worker task panicked");
}

/// Splits `data` into fixed chunks of `chunk` elements (the last may be
/// short) and applies `f(chunk_index, chunk)` to every chunk in parallel.
///
/// The chunk grid depends only on `data.len()` and `chunk`, so the
/// decomposition — and therefore the result of any per-chunk computation —
/// is independent of the thread count.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if data.len() <= chunk || current_threads() <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let f = &f;
    let tasks: Vec<Task<'_>> = data
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, c)| -> Task<'_> { Box::new(move || f(i, c)) })
        .collect();
    run_tasks(tasks);
}

/// Two-slice variant of [`par_chunks_mut`]: applies `f(chunk_index,
/// a_chunk, b_chunk)` over the paired fixed chunks of two mutable slices
/// that may differ in element type and chunk width (one image's output
/// beside its argmax or scale map).
///
/// # Panics
///
/// Panics if a chunk width is zero or the two slices do not split into the
/// same number of chunks.
pub fn par_chunks_mut2<T, U, F>(a: &mut [T], a_chunk: usize, b: &mut [U], b_chunk: usize, f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(a_chunk > 0 && b_chunk > 0, "chunk size must be positive");
    assert_eq!(
        a.len().div_ceil(a_chunk),
        b.len().div_ceil(b_chunk),
        "par_chunks_mut2 chunk count mismatch"
    );
    if a.len() <= a_chunk || current_threads() <= 1 {
        for (i, (ac, bc)) in a.chunks_mut(a_chunk).zip(b.chunks_mut(b_chunk)).enumerate() {
            f(i, ac, bc);
        }
        return;
    }
    let f = &f;
    let tasks: Vec<Task<'_>> = a
        .chunks_mut(a_chunk)
        .zip(b.chunks_mut(b_chunk))
        .enumerate()
        .map(|(i, (ac, bc))| -> Task<'_> { Box::new(move || f(i, ac, bc)) })
        .collect();
    run_tasks(tasks);
}

/// Like [`par_chunks_mut`] but walks a read-only slice in lockstep: applies
/// `f(out_chunk, x_chunk)` over matching fixed chunks of `out` and `x`.
///
/// # Panics
///
/// Panics if `chunk == 0` or the slice lengths differ.
pub fn par_zip_mut<T, U, F>(out: &mut [T], x: &[U], chunk: usize, f: F)
where
    T: Send,
    U: Sync,
    F: Fn(&mut [T], &[U]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    assert_eq!(out.len(), x.len(), "par_zip_mut length mismatch");
    if out.len() <= chunk || current_threads() <= 1 {
        for (oc, xc) in out.chunks_mut(chunk).zip(x.chunks(chunk)) {
            f(oc, xc);
        }
        return;
    }
    let f = &f;
    let tasks: Vec<Task<'_>> = out
        .chunks_mut(chunk)
        .zip(x.chunks(chunk))
        .map(|(oc, xc)| -> Task<'_> { Box::new(move || f(oc, xc)) })
        .collect();
    run_tasks(tasks);
}

/// Three-slice variant of [`par_zip_mut`]: `f(out_chunk, a_chunk, b_chunk)`
/// over matching fixed chunks.
///
/// # Panics
///
/// Panics if `chunk == 0` or the slice lengths differ.
pub fn par_zip2_mut<T, U, V, F>(out: &mut [T], a: &[U], b: &[V], chunk: usize, f: F)
where
    T: Send,
    U: Sync,
    V: Sync,
    F: Fn(&mut [T], &[U], &[V]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    assert_eq!(out.len(), a.len(), "par_zip2_mut length mismatch");
    assert_eq!(out.len(), b.len(), "par_zip2_mut length mismatch");
    if out.len() <= chunk || current_threads() <= 1 {
        for ((oc, ac), bc) in out.chunks_mut(chunk).zip(a.chunks(chunk)).zip(b.chunks(chunk)) {
            f(oc, ac, bc);
        }
        return;
    }
    let f = &f;
    let tasks: Vec<Task<'_>> = out
        .chunks_mut(chunk)
        .zip(a.chunks(chunk))
        .zip(b.chunks(chunk))
        .map(|((oc, ac), bc)| -> Task<'_> { Box::new(move || f(oc, ac, bc)) })
        .collect();
    run_tasks(tasks);
}

/// Two-mutable-slice variant of [`par_zip_mut`]: `f(a_chunk, b_chunk,
/// x_chunk)` over matching fixed chunks of two mutable slices and one
/// read-only slice. Used by the fused elastic-mixing kernel, which updates
/// `W_x` and produces `ΔW` in one pass over `W_g`.
///
/// # Panics
///
/// Panics if `chunk == 0` or the slice lengths differ.
pub fn par_zip_mut2<T, U, V, F>(a: &mut [T], b: &mut [U], x: &[V], chunk: usize, f: F)
where
    T: Send,
    U: Send,
    V: Sync,
    F: Fn(&mut [T], &mut [U], &[V]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    assert_eq!(a.len(), b.len(), "par_zip_mut2 length mismatch");
    assert_eq!(a.len(), x.len(), "par_zip_mut2 length mismatch");
    if a.len() <= chunk || current_threads() <= 1 {
        for ((ac, bc), xc) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).zip(x.chunks(chunk)) {
            f(ac, bc, xc);
        }
        return;
    }
    let f = &f;
    let tasks: Vec<Task<'_>> = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .zip(x.chunks(chunk))
        .map(|((ac, bc), xc)| -> Task<'_> { Box::new(move || f(ac, bc, xc)) })
        .collect();
    run_tasks(tasks);
}

/// Fixed chunk width (in f32 elements) for parallel elementwise kernels.
///
/// Chosen large enough that task overhead is negligible and small enough
/// that SEASGD-sized parameter vectors (hundreds of thousands of elements)
/// split into many chunks. Being a constant, it is part of the deterministic
/// decomposition contract.
pub const ELEMWISE_CHUNK: usize = 16_384;

/// Element counts at or below this stay on the calling thread: pool
/// dispatch costs more than it saves for small vectors (the 4 MiB SMB
/// accumulate lost ~30% at 2 threads under the old always-chunk grid).
/// Derived only from the element count — never the thread count — so the
/// chunk grid stays part of the deterministic decomposition contract.
pub const ELEMWISE_PAR_MIN: usize = 4 * ELEMWISE_CHUNK;

/// Upper bound on the number of chunks a single elementwise dispatch
/// produces; very long vectors get proportionally wider chunks so task
/// count (and per-task overhead) stays bounded.
pub const ELEMWISE_MAX_CHUNKS: usize = 32;

/// The deterministic chunk width for an elementwise kernel over `len`
/// elements: one single chunk at or below [`ELEMWISE_PAR_MIN`], otherwise
/// at least [`ELEMWISE_CHUNK`] wide and at most [`ELEMWISE_MAX_CHUNKS`]
/// chunks. A pure function of `len`, so every kernel using it decomposes —
/// and reduces — identically at any thread count.
pub fn elemwise_chunk(len: usize) -> usize {
    if len <= ELEMWISE_PAR_MIN {
        len.max(1)
    } else {
        ELEMWISE_CHUNK.max(len.div_ceil(ELEMWISE_MAX_CHUNKS))
    }
}

/// A shared handle over one mutable slice that hands out disjoint mutable
/// sub-ranges to concurrent tasks.
///
/// `split_at_mut` can only partition a slice into contiguous pieces, but
/// the packed-GEMM and fused-convolution grids write *strided* disjoint
/// ranges of one output (a column strip touches every row). This handle is
/// the crate-internal primitive for that pattern: it pins the slice borrow
/// for `'a` and lets each task reborrow its own range.
///
/// # Contract (callers)
///
/// [`SliceParts::part`] is memory-safe only if, at any instant, all live
/// sub-borrows obtained from the same handle cover pairwise-disjoint
/// ranges — exactly the `split_at_mut` guarantee, checked by the caller's
/// grid arithmetic instead of the borrow checker. Every call site in this
/// crate derives its ranges from a fixed tile grid whose tiles are disjoint
/// by construction, and tasks never outlive the dispatch that spawned
/// them. This type is deliberately `pub(crate)`: the contract is audited
/// here and in `gemm.rs`/`conv.rs`, and Miri runs the `parallel`-named
/// kernel tests over it (`scripts/miri.sh`).
pub(crate) struct SliceParts<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: a SliceParts is just a borrow of `&'a mut [T]` split across
// tasks; sending or sharing it between threads is sound whenever sending
// `&mut [T]` chunks is, i.e. for `T: Send`. Shared access (`Sync`) only
// exposes `part`, whose disjointness contract prevents aliasing.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SliceParts<'_, T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SliceParts<'_, T> {}

impl<'a, T> SliceParts<'a, T> {
    /// Wraps `data`, taking over its mutable borrow for `'a`.
    pub(crate) fn new(data: &'a mut [T]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len(), _marker: std::marker::PhantomData }
    }

    /// Reborrows `[start, start + len)` mutably.
    ///
    /// Bounds are checked; **disjointness of concurrently live parts is
    /// the caller's responsibility** (see the type-level contract).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub(crate) fn part(&self, start: usize, len: usize) -> &'a mut [T] {
        assert!(
            start <= self.len && len <= self.len - start,
            "SliceParts::part range {start}..{} out of bounds for length {}",
            start + len,
            self.len
        );
        // SAFETY: the range is in bounds of the original borrow (asserted
        // above), the original `&'a mut [T]` is held exclusively by this
        // handle for 'a, and the caller contract guarantees concurrently
        // live parts are pairwise disjoint — the same shape of guarantee
        // `split_at_mut` provides.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(start), len)
        }
    }
}

/// Maps fixed chunks of `x` through `f` and combines the per-chunk partials
/// **in chunk order** with `combine` — the deterministic reduction used by
/// `dot` and friends. Chunk boundaries depend only on `x.len()`.
pub fn par_reduce<T, A, F, C>(x: &[T], chunk: usize, init: A, f: F, combine: C) -> A
where
    T: Sync,
    A: Send,
    F: Fn(&[T]) -> A + Sync,
    C: Fn(A, A) -> A,
{
    assert!(chunk > 0, "chunk size must be positive");
    if x.len() <= chunk || current_threads() <= 1 {
        return x.chunks(chunk).fold(init, |acc, c| combine(acc, f(c)));
    }
    let n_chunks = x.len().div_ceil(chunk);
    let mut partials: Vec<Option<A>> = (0..n_chunks).map(|_| None).collect();
    {
        let tasks: Vec<Task<'_>> = partials
            .iter_mut()
            .zip(x.chunks(chunk))
            .map(|(slot, c)| -> Task<'_> {
                let f = &f;
                Box::new(move || *slot = Some(f(c)))
            })
            .collect();
        run_tasks(tasks);
    }
    partials.into_iter().fold(init, |acc, p| combine(acc, p.expect("chunk partial computed")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_executes_everything() {
        let mut out = vec![0usize; 100];
        {
            let tasks: Vec<Task<'_>> = out
                .chunks_mut(7)
                .enumerate()
                .map(|(i, c)| -> Task<'_> {
                    Box::new(move || c.iter_mut().for_each(|v| *v = i + 1))
                })
                .collect();
            run_tasks(tasks);
        }
        assert!(out.iter().all(|&v| v > 0));
        assert_eq!(out[0], 1);
        assert_eq!(out[99], 100usize.div_ceil(7));
    }

    #[test]
    fn par_chunks_mut_is_thread_count_invariant() {
        let base: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |threads: usize| {
            let mut data = base.clone();
            with_threads(threads, || {
                par_chunks_mut(&mut data, ELEMWISE_CHUNK, |i, c| {
                    for v in c.iter_mut() {
                        *v = v.mul_add(1.5, i as f32 * 1e-6);
                    }
                });
            });
            data
        };
        let serial = run(1);
        for t in [2, 4, 7] {
            assert_eq!(serial, run(t), "threads={t}");
        }
    }

    #[test]
    fn par_reduce_combines_in_fixed_order() {
        let x: Vec<f32> = (0..40_000).map(|i| (i as f32 * 0.11).cos()).collect();
        let sum = |threads: usize| {
            with_threads(threads, || {
                par_reduce(&x, ELEMWISE_CHUNK, 0.0f32, |c| c.iter().sum::<f32>(), |a, b| a + b)
            })
        };
        let serial = sum(1);
        for t in [2, 4, 7] {
            assert_eq!(serial.to_bits(), sum(t).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn elemwise_chunk_is_a_pure_function_of_len() {
        assert_eq!(elemwise_chunk(0), 1);
        assert_eq!(elemwise_chunk(1), 1);
        // At or below the dispatch floor: one chunk == serial.
        assert_eq!(elemwise_chunk(ELEMWISE_PAR_MIN), ELEMWISE_PAR_MIN);
        // Just above: back to the fixed fine-grained width.
        assert_eq!(elemwise_chunk(ELEMWISE_PAR_MIN + 1), ELEMWISE_CHUNK);
        // Very large: chunk widens so the task count stays bounded.
        let big = 64 * ELEMWISE_CHUNK;
        let chunk = elemwise_chunk(big);
        assert!(big.div_ceil(chunk) <= ELEMWISE_MAX_CHUNKS);
        // Thread-count independence: the override must not change the grid.
        let base = elemwise_chunk(ELEMWISE_PAR_MIN + 123);
        for t in [1usize, 2, 8] {
            assert_eq!(with_threads(t, || elemwise_chunk(ELEMWISE_PAR_MIN + 123)), base);
        }
    }

    #[test]
    fn slice_parts_disjoint_strided_writes() {
        // Write a strided pattern (every task owns one column of a 2-D
        // view) — the access shape split_at_mut cannot express.
        let rows = 8;
        let cols = 6;
        let mut data = vec![0usize; rows * cols];
        {
            let parts = SliceParts::new(&mut data);
            let parts = &parts;
            let tasks: Vec<Task<'_>> = (0..cols)
                .map(|j| -> Task<'_> {
                    Box::new(move || {
                        for i in 0..rows {
                            parts.part(i * cols + j, 1)[0] = i * cols + j + 1;
                        }
                    })
                })
                .collect();
            run_tasks(tasks);
        }
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k + 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_parts_bounds_checked() {
        let mut data = [0.0f32; 4];
        let parts = SliceParts::new(&mut data);
        let _ = parts.part(3, 2);
    }

    #[test]
    fn task_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let tasks: Vec<Task<'_>> = (0..8)
                    .map(|i| -> Task<'_> {
                        Box::new(move || {
                            if i == 5 {
                                panic!("boom");
                            }
                        })
                    })
                    .collect();
                run_tasks(tasks);
            });
        });
        assert!(result.is_err());
    }
}
