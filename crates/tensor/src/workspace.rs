//! Reusable per-thread scratch arenas for the packed compute kernels.
//!
//! Every hot kernel in this crate needs transient buffers — packed GEMM
//! panels, the convolution's filter panels and staged image bands, the
//! max-pool's staged channel band, the LRN ratio map. Allocating them per call (let alone per task) puts `malloc`
//! and page-zeroing on the critical path and is why an earlier
//! batch-parallel conv *lost* throughput with more threads.
//!
//! This module replaces those allocations with **tagged thread-local
//! buffers**:
//!
//! * Each [`Tag`] names one logical scratch role. A kernel borrows the
//!   buffer for a tag with [`with_f32`], which hands out a `&mut [f32]` of
//!   exactly the requested length.
//! * Buffers grow **monotonically** and are never freed: after the first
//!   pass over a layer, steady-state forward/backward performs zero
//!   allocations (asserted by `tests/alloc_free.rs`).
//! * Buffers are per OS thread. Pool workers are persistent
//!   ([`crate::parallel`]), so their arenas are warm for the whole
//!   process lifetime; the calling thread has its own arena (every
//!   simulated process of one run calls from the run's thread, so they
//!   share it: no borrow is held while a kernel runs, so none is held
//!   across a process switch).
//!
//! Lifetime and tagging rules (see DESIGN.md §5h):
//!
//! 1. A buffer is borrowed for the duration of one `with_f32` closure and
//!    must not escape it (the API makes escape impossible).
//! 2. Nested borrows of *different* tags are fine and are how the kernels
//!    compose (e.g. `ConvPackA` → `ConvPackB`). A nested
//!    borrow of the *same* tag does not alias — the slot is empty while
//!    borrowed, so the inner borrow gets a fresh temporary and the larger
//!    of the two buffers survives — but it allocates, so kernels are
//!    written to never nest a tag inside itself.
//! 3. Contents are **dirty**: a borrowed buffer holds whatever the last
//!    user left. Every kernel fully overwrites the region it reads back
//!    (packing and staging routines write their padding explicitly —
//!    zeros, `-inf` for max pooling; tile write-backs overwrite on the
//!    first k-block).
//!
//! Determinism: arenas hold *scratch*, never results. Which thread's
//! arena a task uses can vary with the schedule, but every buffer is
//! fully written before it is read, so outputs cannot observe the
//! difference.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Logical scratch roles. One persistent buffer per tag per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Packed `op(A)` MR-row panels for the generic [`crate::gemm::gemm`].
    GemmPackA,
    /// Packed `op(B)` NR-column panels for the generic gemm.
    GemmPackB,
    /// Convolution: the call-wide packed filter panels (forward) or `Wᵀ`
    /// panels (`d_input`).
    ConvPackA,
    /// A task's staged band: the convolution's zero-padded image or `dY`
    /// rows, or max pooling's `-inf`-padded channel.
    ConvPackB,
    /// A `dW` task's transposed `dY` and its per-k-block tiles.
    ConvGrad,
    /// LRN backward: one image's `dy·x·s^-β / s` ratio map plus the window
    /// sum row.
    LrnRatio,
}

const TAG_COUNT: usize = 6;

thread_local! {
    static SLOTS: [RefCell<Vec<f32>>; TAG_COUNT] = Default::default();
}

/// Total number of buffer growths across all threads since process start.
/// Growths happen during warm-up only; tests use the counter to prove the
/// steady state is allocation-free.
static GROWTHS: AtomicU64 = AtomicU64::new(0);

/// Number of arena buffer growths (allocations) observed so far, summed
/// over all threads. Monotonic; intended for tests and diagnostics.
pub fn growth_count() -> u64 {
    GROWTHS.load(Ordering::Relaxed)
}

/// Borrows this thread's buffer for `tag`, grown to at least `len`
/// elements, for the duration of `f`.
///
/// The slice contents are unspecified on entry (see the module docs for
/// the overwrite-before-read rule). The buffer is returned to the
/// thread-local slot when `f` finishes, keeping its capacity.
pub fn with_f32<R>(tag: Tag, len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = SLOTS.with(|slots| std::mem::take(&mut *slots[tag as usize].borrow_mut()));
    if buf.len() < len {
        if buf.capacity() < len {
            GROWTHS.fetch_add(1, Ordering::Relaxed);
        }
        buf.resize(len, 0.0);
    }
    let result = f(&mut buf[..len]);
    SLOTS.with(|slots| {
        let mut slot = slots[tag as usize].borrow_mut();
        // Keep the larger buffer if a nested same-tag borrow replaced it.
        if slot.len() < buf.len() {
            *slot = buf;
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_reused_and_grows_monotonically() {
        let ptr = with_f32(Tag::GemmPackA, 100, |b| {
            assert_eq!(b.len(), 100);
            b[99] = 7.0;
            b.as_ptr()
        });
        // Re-borrowing at a smaller length sees the same 100-element buffer
        // trimmed to the request; nothing is reallocated. (The counter is
        // process-wide, and other tests' threads grow their own arenas
        // concurrently, so only "it went up" is asserted on it.)
        let before = growth_count();
        with_f32(Tag::GemmPackA, 10, |b| assert_eq!((b.len(), b.as_ptr()), (10, ptr)));
        with_f32(Tag::GemmPackA, 100, |b| {
            assert_eq!((b.len(), b.as_ptr()), (100, ptr), "no growth when capacity suffices");
        });
        with_f32(Tag::GemmPackA, 200, |b| assert_eq!(b.len(), 200));
        assert!(growth_count() > before, "growing past capacity is counted");
    }

    #[test]
    fn nested_distinct_tags_do_not_alias() {
        with_f32(Tag::ConvPackA, 8, |a| {
            a.fill(1.0);
            with_f32(Tag::ConvPackB, 8, |b| {
                b.fill(2.0);
                assert_eq!(a[0], 1.0);
                assert_eq!(b[0], 2.0);
            });
        });
    }

    #[test]
    fn nested_same_tag_falls_back_to_fresh_buffer() {
        with_f32(Tag::LrnRatio, 4, |outer| {
            outer.fill(3.0);
            with_f32(Tag::LrnRatio, 4, |inner| {
                inner.fill(4.0);
            });
            assert_eq!(outer, &[3.0; 4][..], "outer borrow survives nesting");
        });
    }
}
