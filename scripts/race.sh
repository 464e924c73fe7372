#!/usr/bin/env bash
# The happens-before race-detector suites, run once per tier-1 gate by
# scripts/check.sh (and so by the one CI job). Each line builds its crate
# with the vector-clock detector compiled in (`--features race-detect`) and
# runs *every* test of the crate: SMB seeded-race / failover / fence-chain /
# repair / chunk+tile proofs (`crates/smb/tests/race_detect.rs`), the
# op-matrix golden, and the SEASGD chaos / failover / partition scenarios,
# the per-shard fail-over of sharded lanes (`exchange_equivalence.rs::
# sharded_lanes_fail_over_per_shard`) and the platform goldens
# (`crates/shmcaffe/tests/`). Then the MPI substrate's suite runs with
# the detector compiled into simnet, so the send→receive edge of every
# collective's ring step and barrier leg is checked, and so does the
# collectives crate's: the intra-node ring all-reduce and broadcast that
# ShmCaffe-H and Caffe run. The last line runs the root integration suite (`tests/{smb_protocol,
# seasgd_algebra,distributed_training,inception_hybrid}.rs`) with the
# detector compiled into the shmcaffe stack it drives.
#
#   scripts/race.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for crate in shmcaffe-simnet shmcaffe-smb shmcaffe; do
    echo "-- race-detect: $crate"
    cargo test -q -p "$crate" --features race-detect
done
echo "-- race-detect: shmcaffe-mpi (collectives: ring steps and barrier legs)"
cargo test -q -p shmcaffe-mpi --features shmcaffe-simnet/race-detect
echo "-- race-detect: shmcaffe-collectives (intra-node ring all-reduce and broadcast)"
cargo test -q -p shmcaffe-collectives --features shmcaffe-simnet/race-detect
echo "-- race-detect: shmcaffe-repro (root integration suite)"
cargo test -q -p shmcaffe-repro --features shmcaffe/race-detect
