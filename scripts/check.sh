#!/usr/bin/env bash
# Tier-1 gate: a zero-warning clippy pass and a zero-warning rustdoc pass, then
# the full workspace test suite. Clippy runs first because it carries the determinism rules
# (clippy.toml, the [workspace.lints] table and the data-plane crate roots;
# DESIGN.md §5d), so a violation fails in seconds, not after two suites.
# The chaos/fault/failover tests are part of the default profile and are
# sized to keep the whole run fast (the chaos and memory-server failover
# integration tests each complete in well under a second of real time).
#
# The suite runs twice — once with SHMCAFFE_THREADS=1 and once with
# SHMCAFFE_THREADS=4 — because the compute backend dispatches onto a
# worker pool and every kernel promises bit-identical results at any
# thread count. Each pass runs every test target of the workspace once
# (the conv/LRN/pool oracles, the exchange, partition, integrity and
# schedcheck suites included); no target is re-invoked afterwards. The three end-to-end oracles are tests of that
# suite, pinned as literals at 1 and 4 threads: the seeded training
# checksums of small_cnn and mini_inception
# (crates/models/tests/training_checksum.rs) and the exchange checksum,
# monolithic and chunked (crates/shmcaffe/tests/exchange_equivalence.rs).
# After the suite, the one record that is virtual time or seeded training
# (BENCH_paper.json: the paper's figures, the scoreboard, the exchange
# table, the fault sweep and the ablations) is re-run by its one driver and
# must reproduce exactly, and kernel_bench --smoke bounds the conv task
# grid on the host clock. Every example under examples/ runs once and must
# exit 0. The whole-stack benchmark package is also built from its own
# manifest, as the benchmark pipeline builds it, and its own tests run
# from there.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (workspace, check only) =="
cargo fmt --all -- --check

echo "== clippy (workspace, every target, deny warnings): determinism + unsafe + data-plane lints =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, no deps, deny warnings): every intra-doc link resolves =="
# Deleting an item that a doc comment links to fails here, and so does a
# link from a public doc to a private item (name those as code spans).
RUSTDOCFLAGS='-D warnings' cargo doc -q --workspace --no-deps

echo "== cfg(race-detect) stays behind the simnet seam (SimContext::access, HbEdge) =="
grep -rn 'feature = "race-detect"' crates/*/src | grep -v '^crates/simnet/src/' &&
    { echo "FAIL: cfg(feature = \"race-detect\") outside crates/simnet/src" >&2; exit 1; }

echo "== unsafe stays in the four audited shmcaffe-tensor files and simnet's fiber switch (scripts/miri.sh lists them) =="
# Every other crate forbids unsafe_code; shmcaffe-tensor and
# shmcaffe-simnet deny it, so a new site needs an allow, and this list is
# what review must see change.
unsafe_files=$(grep -rlE '(allow|expect|warn)\(unsafe_code' crates/tensor crates/simnet | sort)
expected=$(printf '%s\n' crates/simnet/src/fiber.rs crates/tensor/src/crc32c.rs \
    crates/tensor/src/parallel.rs crates/tensor/src/simd.rs crates/tensor/tests/alloc_free.rs)
if [ "$unsafe_files" != "$expected" ]; then
    printf 'FAIL: unsafe_code opt-outs in shmcaffe-tensor / shmcaffe-simnet:\n%s\nexpected:\n%s\n' \
        "$unsafe_files" "$expected" >&2
    exit 1
fi

echo "== every dependency resolves inside the checkout ([patch.crates-io] stand-ins, no registry source) =="
# Resolved package ids, not the `"source"` of a dependency declaration
# (that names crates.io for every patched crate).
meta=$(cargo metadata --format-version 1)
if grep -q '"id":"[^"]*registry+' <<<"$meta"; then
    echo "FAIL: a dependency resolves to a registry; add it to [patch.crates-io] or drop it" >&2
    exit 1
fi

# The whole-stack benchmark is a package of its own (its manifest, its
# vendored stand-ins) and is built exactly as the benchmark pipeline builds
# it, so a library change that breaks the standalone package fails here.
echo "== whole-stack benchmark: standalone release build from its own manifest =="
CARGO_TARGET_DIR=target/benchmark cargo build -q --release --offline \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# The package's own tests: quick_smoke_of_every_workload runs each workload
# briefly and checks that the traced replay reproduces the platform run's
# checksum and virt_iter_ms.
echo "== whole-stack benchmark: its own tests (every workload, traced replay reproduces the run) =="
CARGO_TARGET_DIR=target/benchmark cargo test -q --release --offline \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Every schedcheck suite carries its own schedule budget (ExploreBounds);
# the timeout is a wall-clock backstop so a pruning regression fails the
# gate instead of hanging it.
echo "== tier-1 suite, SHMCAFFE_THREADS=1 =="
SHMCAFFE_THREADS=1 timeout 1800 cargo test -q --workspace

echo "== tier-1 suite, SHMCAFFE_THREADS=4 =="
SHMCAFFE_THREADS=4 timeout 1800 cargo test -q --workspace

echo "== examples: each release example runs once and exits 0 =="
# Clippy only compiles them; a panic at run time shows here.
cargo build -q --release --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    ./target/release/examples/"$name" > /dev/null ||
        { echo "FAIL: example $name exited nonzero" >&2; exit 1; }
done

echo "== kernel-bench smoke: in-image conv task grid must not regress (host-aware floor) =="
cargo build -q --release -p shmcaffe-bench --bin kernel_bench
./target/release/kernel_bench --smoke

echo "== paper record: BENCH_paper.json reproduces exactly (virtual time + seeded training) =="
cargo build -q --release -p shmcaffe-bench --bin paper
./target/release/paper --check | tail -n 3

echo "== race detector: SMB seeded-race/failover/fence-chain/repair + SEASGD chaos/failover/partition + MPI collectives + intra-node collectives + root integration suite =="
./scripts/race.sh

echo "== miri (skips when not installed) =="
./scripts/miri.sh

echo "check.sh: all gates passed"
