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
# thread count. Two seeded end-to-end training checksums (small_cnn, and
# the benchmark's mini_inception: 1x1/3x3/5x5 convs, padded stride-1
# pools, LRN, Inception concat) are compared across the two settings to
# catch any schedule-dependent reduction order.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (workspace, check only) =="
cargo fmt --all -- --check

echo "== determinism lint + allowlist audit =="
cargo run -q -p shmcaffe-analysis

echo "== analysis self-check (lexer + rule fixtures, workspace clean) =="
cargo test -q -p shmcaffe-analysis

echo "== tier-1 suite, SHMCAFFE_THREADS=1 =="
SHMCAFFE_THREADS=1 cargo test -q --workspace

echo "== tier-1 suite, SHMCAFFE_THREADS=4 =="
SHMCAFFE_THREADS=4 cargo test -q --workspace

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

echo "== direct conv (fwd, dX, dW): bit-identity vs the im2col oracle (wide geometries, 1/2/4/7 threads) + zero-alloc steady state (conv fwd/bwd, max-pool fwd) =="
cargo test -q -p shmcaffe-tensor --test fused_conv
cargo test -q -p shmcaffe-tensor --test alloc_free

echo "== memory-bound layers: LRN vs per-element oracle, tiled max-pool vs per-window oracle, pooling goldens, propagate_down =="
cargo test -q -p shmcaffe-tensor --test lrn_oracle --test pool_oracle --test pool_golden
cargo test -q -p shmcaffe-models --test propagate_down

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

echo "== chunked exchange equivalence (proptest over chunk sizes and lanes) =="
cargo test -q -p shmcaffe --test exchange_equivalence

echo "== partition tolerance: split-brain chaos + fencing/replica suites =="
cargo test -q -p shmcaffe --test partition
cargo test -q -p shmcaffe-smb --lib -- promotion fenced partition reconcile

echo "== data integrity: CRC kernel + CRC-grid proptests + repair/scrub suites + corruption chaos =="
cargo test -q -p shmcaffe-tensor --lib crc32c
cargo test -q -p shmcaffe-smb --test integrity_proptests
cargo test -q -p shmcaffe-smb --test integrity
cargo test -q -p shmcaffe --test chaos -- corrupt

echo "== schedcheck: bounded DPOR exploration + seeded-mutation harness =="
# Every suite carries its own schedule budget (ExploreBounds); the timeout
# is a wall-clock backstop so a pruning regression fails the gate instead
# of hanging it.
timeout 300 cargo test -q -p shmcaffe-simnet --test schedcheck
timeout 300 cargo test -q -p shmcaffe-smb --test schedcheck
timeout 300 cargo test -q -p shmcaffe --test schedcheck_seasgd

echo "== race detector: SMB seeded-race/failover/fence-chain/repair + SEASGD chaos/failover/partition =="
./scripts/race.sh

echo "== miri (skips when not installed) =="
./scripts/miri.sh

echo "== clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings
echo "== clippy (bench crate incl. bins, deny warnings) =="
cargo clippy -p shmcaffe-bench --all-targets -- -D warnings

echo "check.sh: all gates passed"
