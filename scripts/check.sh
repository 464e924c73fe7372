#!/usr/bin/env bash
# Tier-1 gate: the full workspace test suite plus a zero-warning clippy
# pass. The chaos/fault/failover tests are part of the default profile and
# are sized to keep the whole run fast (the chaos and memory-server
# failover integration tests each complete in well under a second of real
# time).
#
# The suite runs twice — once with SHMCAFFE_THREADS=1 and once with
# SHMCAFFE_THREADS=4 — because the compute backend dispatches onto a
# worker pool and every kernel promises bit-identical results at any
# thread count. Each pass runs every test target of the workspace once
# (the analysis fixtures, the conv/LRN/pool oracles, the exchange,
# partition, integrity and schedcheck suites included); no target is
# re-invoked afterwards. The three end-to-end oracles are tests of that
# suite, pinned as literals at 1 and 4 threads: the seeded training
# checksums of small_cnn and mini_inception
# (crates/models/tests/training_checksum.rs) and the exchange checksum,
# monolithic and chunked (crates/shmcaffe/tests/exchange_equivalence.rs).
# After the suite, the one record that is virtual time or seeded training
# (BENCH_paper.json: the paper's figures, the scoreboard, the exchange
# table, the fault sweep and the ablations) is re-run by its one driver and
# must reproduce exactly, and kernel_bench --smoke bounds the conv task
# grid on the host clock.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (workspace, check only) =="
cargo fmt --all -- --check

echo "== determinism lint + allowlist audit =="
cargo run -q -p shmcaffe-analysis

echo "== cfg(race-detect) stays behind the simnet seam (SimContext::access, HbEdge) =="
grep -rn 'feature = "race-detect"' crates/*/src | grep -v '^crates/simnet/src/' &&
    { echo "FAIL: cfg(feature = \"race-detect\") outside crates/simnet/src" >&2; exit 1; }

echo "== every dependency resolves inside the checkout ([patch.crates-io] stand-ins, no registry source) =="
# Resolved package ids, not the `"source"` of a dependency declaration
# (that names crates.io for every patched crate).
meta=$(cargo metadata --format-version 1)
if grep -q '"id":"[^"]*registry+' <<<"$meta"; then
    echo "FAIL: a dependency resolves to a registry; add it to [patch.crates-io] or drop it" >&2
    exit 1
fi

# Every schedcheck suite carries its own schedule budget (ExploreBounds);
# the timeout is a wall-clock backstop so a pruning regression fails the
# gate instead of hanging it.
echo "== tier-1 suite, SHMCAFFE_THREADS=1 =="
SHMCAFFE_THREADS=1 timeout 1800 cargo test -q --workspace

echo "== tier-1 suite, SHMCAFFE_THREADS=4 =="
SHMCAFFE_THREADS=4 timeout 1800 cargo test -q --workspace

echo "== kernel-bench smoke: in-image conv task grid must not regress (host-aware floor) =="
cargo build -q --release -p shmcaffe-bench --bin kernel_bench
./target/release/kernel_bench --smoke

echo "== paper record: BENCH_paper.json reproduces exactly (virtual time + seeded training) =="
cargo build -q --release -p shmcaffe-bench --bin paper
./target/release/paper --check | tail -n 3

echo "== race detector: SMB seeded-race/failover/fence-chain/repair + SEASGD chaos/failover/partition =="
./scripts/race.sh

echo "== miri (skips when not installed) =="
./scripts/miri.sh

echo "== clippy (workspace, every target, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "check.sh: all gates passed"
