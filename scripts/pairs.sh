#!/usr/bin/env bash
# Parent-vs-change table of the whole-stack benchmark: alternating pairs of
# `--trace 0` harness runs of two builds of
# `crates/bench/src/bin/benchmark`, summarised per end-to-end metric.
#
#   scripts/pairs.sh <parent-bin> <change-bin> <workload|all> <seed> [pairs] [seconds]
#
# `pairs` defaults to 10 and `seconds` to 20 (BENCHMARK.json's run length).
# `all` runs every workload BENCHMARK.json names, one table each, in its
# order.
# Pair i runs the parent first when i is odd and the change first when it
# is even. For every metric of the runs' JSON line it prints each side's
# median and quartiles (q1-q3, linear interpolation), the change/parent
# ratio of the medians, and the pairs the change won (ties count for
# neither side), then the failed/attempted totals. Above the table it
# names the host's wide-lane tier (the widest of avx512f / avx2 in the
# /proc/cpuinfo flags, else baseline) and its CRC32C kernel (fold with
# vpclmulqdq and avx512f, crc32 with sse4_2, else portable): the kernels
# run other tile shapes on each tier and the SMB integrity grid hashes at
# each kernel's speed, so a host_s pair only compares builds that ran the
# same tier and, on smb_mix and fault_a8, the same CRC kernel.
# Every metric the benchmark reports is lower-is-better. A gain is claimed
# when the change wins at least 9 of 10 pairs and the medians differ by
# more than the parent's q3 - q1. Each table ends with a line naming the
# metrics whose change median lies above the parent's q3; after the last
# table those lines are repeated, one per workload.
#
# Both binaries write their trace and result files under
# $CARGO_TARGET_DIR/benchmark (./target/benchmark when it is unset).
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload|all> <seed> [pairs] [seconds]" >&2
    exit 2
fi
parent=$1 change=$2 seed=$4 pairs=${5:-10} seconds=${6:-20}
if [ "$3" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$(dirname "$0")/../BENCHMARK.json")
else
    workloads=$3
fi

runs=$(mktemp)
verdicts=$(mktemp)
trap 'rm -f "$runs" "$verdicts"' EXIT

# One harness run; appends "<side> <pair> <name> <value>" records.
run() {
    local side=$1 bin=$2 pair=$3 line
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1)
    if [[ $line != '{'* ]]; then
        echo "pairs.sh: $side run of pair $pair printed no result line" >&2
        exit 1
    fi
    awk -v side="$side" -v pair="$pair" '{
        s = $0
        while (match(s, /"[a-z_]+": \{"value": [^,}]+/)) {
            f = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            split(f, p, /"/); sub(/.*"value": /, "", f)
            print side, pair, p[2], f
        }
        split("attempted failed", counted, " ")
        for (k in counted) {
            name = counted[k]
            if (match($0, "\"" name "\": [0-9]+")) {
                v = substr($0, RSTART, RLENGTH); sub(/.*: /, "", v)
                print side, pair, "#" name, v
            }
        }
    }' <<<"$line" >>"$runs"
    awk -v side="$side" -v pair="$pair" '$1 == side && $2 == pair && $3 == "host_s" {
        printf "pair %2d %-6s host_s %.4f\n", pair, side, $4 }' "$runs" >&2
}

flags=" $(grep -m 1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
case $flags in
*" avx512f "*) tier=avx512f ;;
*" avx2 "*) tier=avx2 ;;
*) tier=baseline ;;
esac
if [[ $flags == *" vpclmulqdq "* && $flags == *" avx512f "* ]]; then
    crc=fold
elif [[ $flags == *" sse4_2 "* ]]; then
    crc=crc32
else
    crc=portable
fi
echo "host wide-lane tier: $tier, CRC32C kernel: $crc"

# Alternates the pairs of one workload into $runs.
alternate() {
    local i
    : >"$runs"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "$parent" "$i"
            run change "$change" "$i"
        else
            run change "$change" "$i"
            run parent "$parent" "$i"
        fi
    done
}

# Prints the table of $runs and appends its last line to $verdicts.
table() {
    sort -k3,3 -k1,1 -k4,4g "$runs" | awk -v workload="$workload" -v verdicts="$verdicts" '
        function q(side, name, p,   n, h, lo) {
            n = count[side, name]; h = (n - 1) * p; lo = int(h)
            if (lo + 1 >= n) return val[side, name, n - 1]
            return val[side, name, lo] + (h - lo) * (val[side, name, lo + 1] - val[side, name, lo])
        }
        {
            side = $1; pair = $2 + 0; name = $3
            val[side, name, count[side, name]++] = $4 + 0
            by_pair[side, name, pair] = $4 + 0
            if (!(name in seen)) { seen[name] = 1; names[n_names++] = name }
            if (pair > last_pair) last_pair = pair
        }
        END {
            printf "%-14s %-36s %-36s %8s %6s\n", "metric", "parent median (q1-q3)", "change median (q1-q3)", "ratio", "won"
            for (i = 0; i < n_names; i++) {
                name = names[i]
                if (name ~ /^#/) continue
                won = 0; ties = 0
                for (p = 1; p <= last_pair; p++) {
                    if (by_pair["change", name, p] < by_pair["parent", name, p]) won++
                    else if (by_pair["change", name, p] == by_pair["parent", name, p]) ties++
                }
                pm = q("parent", name, 0.5); cm = q("change", name, 0.5)
                if (cm > q("parent", name, 0.75)) above = above " " name
                printf "%-14s %-36s %-36s %8s %6s%s\n", name,
                    sprintf("%.6g (%.6g-%.6g)", pm, q("parent", name, 0.25), q("parent", name, 0.75)),
                    sprintf("%.6g (%.6g-%.6g)", cm, q("change", name, 0.25), q("change", name, 0.75)),
                    pm == 0 ? "-" : sprintf("%.4f", cm / pm), won "/" last_pair,
                    ties ? " (" ties " ties)" : ""
            }
            for (s = 0; s < 2; s++) {
                side = s == 0 ? "parent" : "change"; failed = 0; attempted = 0
                for (k = 0; k < count[side, "#failed"]; k++) failed += val[side, "#failed", k]
                for (k = 0; k < count[side, "#attempted"]; k++) attempted += val[side, "#attempted", k]
                printf "%s failed %d of %d attempted\n", side, failed, attempted
            }
            verdict = sprintf("%s: change median above the parent q3:%s", workload, above == "" ? " none" : above)
            print verdict
            print verdict >>verdicts
        }'
}

for workload in $workloads; do
    alternate
    echo
    echo "$workload, seed $seed, $pairs pairs at --seconds $seconds"
    table
done

if [ "$(wc -w <<<"$workloads")" -gt 1 ]; then
    echo
    cat "$verdicts"
fi
