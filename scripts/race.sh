#!/usr/bin/env bash
# The happens-before race-detector suites: the one list that both
# scripts/check.sh and the `race-detect` job of .github/workflows/ci.yml
# run. Each line builds its crate with the vector-clock detector compiled
# in (`--features race-detect`) and runs *every* test of the crate, so the
# named suites the two callers used to spell out one by one are all
# included: SMB seeded-race / failover / fence-chain / repair / chunk+tile
# proofs (`crates/smb/tests/race_detect.rs`), the op-matrix golden, and the
# SEASGD chaos / failover / partition scenarios, the per-shard fail-over
# of sharded lanes (`exchange_equivalence.rs::
# sharded_lanes_fail_over_per_shard`) and the platform goldens
# (`crates/shmcaffe/tests/`).
#
#   scripts/race.sh            # quiet
#   scripts/race.sh --verbose  # per-test output (CI logs)
set -euo pipefail
cd "$(dirname "$0")/.."

quiet=-q
[ "${1:-}" = "--verbose" ] && quiet=

for crate in shmcaffe-simnet shmcaffe-smb shmcaffe; do
    echo "-- race-detect: $crate"
    cargo test $quiet -p "$crate" --features race-detect
done
