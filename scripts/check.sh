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
# re-invoked afterwards. Two seeded end-to-end training checksums
# (small_cnn, and the benchmark's mini_inception: 1x1/3x3/5x5 convs,
# padded stride-1 pools, LRN, Inception concat) are compared across the
# two settings to catch any schedule-dependent reduction order, and the
# three records that are virtual time or seeded training (BENCH_comm,
# BENCH_paper, BENCH_fault) are re-run and must reproduce exactly.
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

echo "== seeded training checksums (small_cnn, mini_inception), 1 vs 4 threads =="
cargo build -q --release -p shmcaffe-bench --bin kernel_bench
sum1=$(SHMCAFFE_THREADS=1 ./target/release/kernel_bench --checksum)
sum4=$(SHMCAFFE_THREADS=4 ./target/release/kernel_bench --checksum)
sed 's/^/  1 thread : /' <<<"$sum1"
sed 's/^/  4 threads: /' <<<"$sum4"
if [ "$sum1" != "$sum4" ]; then
    echo "FAIL: a training checksum differs across thread counts" >&2
    exit 1
fi

echo "== kernel-bench smoke: in-image conv task grid must not regress (host-aware floor) =="
./target/release/kernel_bench --smoke

echo "== chunked exchange bit-identity: mono vs chunked x 1 vs 4 threads =="
cargo build -q --release -p shmcaffe-bench --bin exchange_bench
ex_m1=$(SHMCAFFE_THREADS=1 ./target/release/exchange_bench --checksum mono)
ex_m4=$(SHMCAFFE_THREADS=4 ./target/release/exchange_bench --checksum mono)
ex_c1=$(SHMCAFFE_THREADS=1 ./target/release/exchange_bench --checksum chunked)
ex_c4=$(SHMCAFFE_THREADS=4 ./target/release/exchange_bench --checksum chunked)
echo "  mono    1/4 threads: $ex_m1 / $ex_m4"
echo "  chunked 1/4 threads: $ex_c1 / $ex_c4"
if [ "$ex_m1" != "$ex_c1" ] || [ "$ex_m1" != "$ex_m4" ] || [ "$ex_m1" != "$ex_c4" ]; then
    echo "FAIL: chunked exchange checksum diverges from monolithic" >&2
    exit 1
fi

echo "== exchange table: BENCH_comm.json reproduces exactly (virtual time) and meets its printed target =="
./target/release/exchange_bench --check

echo "== paper scoreboard: BENCH_paper.json reproduces exactly (virtual time + seeded training) =="
cargo build -q --release -p shmcaffe-bench --bin paper --bin fault_sweep
./target/release/paper --check | tail -n 3

echo "== fault sweep: BENCH_fault.json reproduces exactly (the 'simulation aborted' panics on stderr are MPICaffe's deliberate abort) =="
RUST_BACKTRACE=0 ./target/release/fault_sweep --check | tail -n 3

echo "== race detector: SMB seeded-race/failover/fence-chain/repair + SEASGD chaos/failover/partition =="
./scripts/race.sh

echo "== miri (skips when not installed) =="
./scripts/miri.sh

echo "== clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings
echo "== clippy (bench crate incl. bins, deny warnings) =="
cargo clippy -p shmcaffe-bench --all-targets -- -D warnings

echo "check.sh: all gates passed"
