#!/usr/bin/env bash
# Where the simulation thread of a whole-stack benchmark workload spends its
# host time: self and inclusive shares per function, from a ptrace stack
# sampler (scripts/hotspots.py) over `--child <workload>` processes.
#
#   scripts/hotspots.sh <workload> [runs]
#
# Builds crates/bench/src/bin/benchmark with frame pointers
# (RUSTFLAGS="-C force-frame-pointers=yes") into target/hotspots, its own
# CARGO_TARGET_DIR, so neither the benchmark's files nor its usual build
# change, then samples `runs` children (default 20, seeds 1..runs). Only the
# `simnet-run` threads are sampled: the idle pool worker and the main
# thread's setup are left out. Needs python3 and nm, not perf or gdb.
#
# libc is stripped, so its samples are also split by direct caller, read
# from the return address at the stack pointer: `[libc] <- <caller>` rows.
# The split holds for leaf routines (memcpy, memset), which push nothing;
# for malloc and free the word is rarely the return address, and their
# samples land in `[libc] <- ?` or name libc itself.
#
# The benchmark's traced pass (`--trace 1`) cannot attribute host time
# below the trainer until its span stack is keyed by process (ROADMAP
# 6(f)); this sampler is how the host-cost tables in EXPERIMENTS.md were
# measured.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: $0 <workload> [runs]" >&2
    exit 2
fi
workload=$1 runs=${2:-20}

target=target/hotspots
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
CARGO_TARGET_DIR=$target python3 scripts/hotspots.py "$target/release/benchmark" "$workload" "$runs"
