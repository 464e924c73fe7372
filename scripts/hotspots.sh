#!/usr/bin/env bash
# Where the simulation thread of a whole-stack benchmark workload spends its
# host time: self and inclusive shares per function, or per source line, from
# a ptrace stack sampler (scripts/hotspots.py) over `--child <workload>`
# processes.
#
#   scripts/hotspots.sh <workload> [runs] [--lines]
#
# Builds crates/bench/src/bin/benchmark with frame pointers
# (RUSTFLAGS="-C force-frame-pointers=yes") and line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only, which changes no code) into
# target/hotspots, its own CARGO_TARGET_DIR, so neither the benchmark's files
# nor its usual build change, then samples `runs` children (default 20, seeds
# 1..runs). Only the `simnet-run` threads are sampled: the idle pool worker
# and the main thread's setup are left out. Needs python3 and nm, not perf
# or gdb.
#
# libc is stripped, so its samples are also split by direct caller, read
# from the return address at the stack pointer: `[libc] <- <caller>` rows.
# The split holds for leaf routines (memcpy, memset), which push nothing;
# for malloc and free the word is rarely the return address, and their
# samples land in `[libc] <- ?` or name libc itself.
#
# --lines: per-line self shares instead, each sampled address mapped
# through `addr2line -i` (needs binutils). Library code inlined into the
# workspace (a `Mutex::lock` from std's futex.rs, a parking_lot stand-in
# call from vendor/) is a line of std, core or vendor/ with its own self
# share, and is also credited (`+lib`) to the first workspace line of its
# inline chain or its callers'. A second table splits that credit by what
# the library code was, `lock` for any mutex. Function-level sampling cannot
# show such a cost: the inlined lock is part of its caller's self time.
#
# The benchmark's traced pass (`--trace 1`) cannot attribute host time
# below the trainer until its span stack is keyed by process (ROADMAP
# 6(f)); this sampler is how the host-cost tables in EXPERIMENTS.md were
# measured.
set -euo pipefail
cd "$(dirname "$0")/.."

lines=()
args=()
for arg in "$@"; do
    if [ "$arg" = --lines ]; then lines=(--lines); else args+=("$arg"); fi
done
if [ ${#args[@]} -lt 1 ]; then
    echo "usage: $0 <workload> [runs] [--lines]" >&2
    exit 2
fi
workload=${args[0]} runs=${args[1]:-20}

target=target/hotspots
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
CARGO_TARGET_DIR=$target python3 scripts/hotspots.py "$target/release/benchmark" \
    "$workload" "$runs" "${lines[@]}"
