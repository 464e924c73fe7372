#!/usr/bin/env bash
# Miri pass over the shmcaffe-tensor worker pool and the portable CRC32C
# kernel.
#
# Scope: the workspace contains exactly four kinds of audited `unsafe`
# site (enforced by `cargo run -p shmcaffe-analysis`):
#
#   1. crates/tensor/src/simd.rs — `with_wide_lanes`, the one AVX2
#      recompilation of safe kernel bodies (the gemm micro-kernel, the
#      direct convolution's forward / d_input / dW task bodies, the
#      max-pool tile) behind `#[target_feature]`. Miri does not model
#      `target_feature` dispatch, so the AVX2 path is compiled out under
#      `cfg(miri)` and the bit-identical baseline compilations run
#      instead; the dispatch itself carries no pointer arithmetic to
#      check.
#   2. crates/tensor/src/parallel.rs:~180 — the `Task<'_>` -> `Job`
#      lifetime-erasing transmute that enqueues scoped jobs on the worker
#      pool. This is the site Miri validates: the soundness argument is
#      that `with_threads` never returns before `done_rx` has received one
#      report per enqueued job, so the erased borrows outlive every use.
#      The pool tests drive real cross-thread enqueue/complete cycles under
#      the borrow-tracking interpreter.
#   3. crates/tensor/src/crc32c.rs — the call into the SSE4.2 `crc32`
#      kernel behind `is_x86_feature_detected!("sse4.2")`. The kernel is a
#      safe `#[target_feature]` function (the intrinsics are safe inside
#      it); the one `unsafe` block is the call from dispatch. Like the AVX2
#      path it is compiled out under `cfg(miri)`, so every checksum in a
#      Miri run goes through the safe slicing-by-8 tables — the crc32c
#      tests below check that kernel against the byte-at-a-time oracle.
#   4. crates/tensor/tests/alloc_free.rs — the counting
#      `#[global_allocator]` backing the zero-allocation gate; it delegates
#      verbatim to `System` plus one relaxed counter increment. Test-only,
#      never linked into library or bin targets.
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
