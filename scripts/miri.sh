#!/usr/bin/env bash
# Miri pass over the shmcaffe-tensor worker pool and the portable CRC32C
# kernel.
#
# Scope: the workspace contains exactly five kinds of audited `unsafe`
# site. Every other crate forbids `unsafe_code` ([workspace.lints]);
# shmcaffe-tensor and shmcaffe-simnet deny it, and `scripts/check.sh`
# pins the five files that opt back in:
#
#   1. crates/tensor/src/simd.rs — `with_wide_lanes`, the one wide-lane
#      dispatch: the AVX-512F and AVX2 recompilations of safe kernel
#      bodies (the gemm micro-kernel, the direct convolution's forward /
#      d_input / dW task bodies, the max-pool tile, the LRN strips)
#      behind `#[target_feature]`, called only with a `Tier` that runtime
#      detection produced. Miri does not model `target_feature` dispatch,
#      so both wide tiers are compiled out under `cfg(miri)` and the
#      bit-identical baseline compilations run instead (the tier-parity
#      tests in simd.rs compare all three on a native host); the dispatch
#      itself carries no pointer arithmetic to check.
#   2. crates/tensor/src/parallel.rs, `run_tasks` (behind
#      `parallel::for_each`) — the `Task<'_>` -> `Job` lifetime-erasing
#      transmute that enqueues scoped jobs on the worker pool. This is the
#      site Miri validates: the soundness argument is that `run_tasks`
#      never returns before `done_rx` has received one report per
#      enqueued job, so the erased borrows outlive every use.
#      The pool tests drive real cross-thread enqueue/complete cycles under
#      the borrow-tracking interpreter.
#   3. crates/tensor/src/crc32c.rs — two kinds of block. (a) The calls from
#      `Kernel::append` into the SSE4.2 `crc32` kernel and the fold kernel
#      (AVX-512F + VPCLMULQDQ + PCLMULQDQ + SSE4.2), made only with a
#      `Kernel` that runtime detection (`is_x86_feature_detected!`) built.
#      Both kernels are safe `#[target_feature]` functions (the intrinsics
#      are safe inside them). (b) The fold kernel's unaligned
#      `_mm512_loadu_si512` loads: each reads one `[f32; 16]` (64 bytes)
#      of the input, obtained with `as_chunks`, so every read is in bounds,
#      and `loadu` needs no alignment. Like the wide-lane tiers both
#      kernels are compiled out under `cfg(miri)`, so every checksum in a
#      Miri run goes through the safe slicing-by-8 tables under the same
#      three-lane split and compile-time shift-table join the `crc32`
#      kernel uses — the crc32c tests below check that kernel, and a sample
#      of each join table, against the byte-at-a-time oracle. The two
#      exhaustive lane-edge sweeps are ignored under Miri (millions of
#      words each); on a native host they and the proptests run every
#      kernel the CPU has against the oracle.
#   4. crates/tensor/tests/alloc_free.rs — the counting
#      `#[global_allocator]` backing the zero-allocation gate; it delegates
#      verbatim to `System` plus one relaxed counter increment. Test-only,
#      never linked into library or bin targets.
#   5. crates/simnet/src/fiber.rs — the fibers every simulated process
#      runs on (DESIGN.md §5k): the x86-64 `global_asm!` context switch
#      and process trampoline, and the `mmap` / `mprotect` / `munmap`
#      calls that map each 2 MiB stack above its guard page. Miri cannot
#      run the assembly (or a foreign mmap), so it is not run here.
#      What covers it instead: fiber.rs's own unit tests of the direct
#      hand-off (`a_ring_of_direct_hand_offs_comes_back_once`,
#      `a_fiber_finishing_after_a_direct_switch_comes_back_as_itself`,
#      `switch_to_refuses_unstarted_finished_running_and_absent_fibers`,
#      which also count the stacks left mapped), and every simulation of
#      the tier-1 suite, at SHMCAFFE_THREADS=1 and =4 — the golden
#      grant-order fingerprint, the one-switch-per-grant stats and the
#      abort / deadlock unwinding tests (crates/simnet/tests/handoff.rs),
#      the guard-page, thread-local and nested-run tests
#      (crates/simnet/tests/fibers.rs), the pinned training, exchange and
#      timing checksums — and so do the race-detector suites
#      (scripts/race.sh) and the schedcheck explorer suites, which run
#      thousands of short simulations.
#
# Miri needs a nightly toolchain component; this gate degrades to a skip
# (exit 0) when it is not installed so offline/stable environments still
# pass check.sh. CI or developers can `rustup +nightly component add miri`.
set -euo pipefail
cd "$(dirname "$0")/.."

if cargo miri --version >/dev/null 2>&1; then
    MIRI=(cargo miri)
elif rustup run nightly cargo miri --version >/dev/null 2>&1; then
    MIRI=(rustup run nightly cargo miri)
else
    echo "miri.sh: miri not installed; skipping (rustup +nightly component add miri)"
    exit 0
fi

echo "== miri: shmcaffe-tensor worker pool (baseline kernel, 2 threads) =="
SHMCAFFE_THREADS=2 MIRIFLAGS="-Zmiri-disable-isolation" \
    "${MIRI[@]}" test -p shmcaffe-tensor parallel

echo "== miri: shmcaffe-tensor CRC32C (portable slicing-by-8 kernel) =="
MIRIFLAGS="-Zmiri-disable-isolation" \
    "${MIRI[@]}" test -p shmcaffe-tensor --lib crc32c

echo "miri.sh: passed"
