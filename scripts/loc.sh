#!/usr/bin/env bash
# Net code size, the measure every PR reports (ROADMAP aim 2): per crate,
# lines of `src/**/*.rs` up to the file's `#[cfg(test)]` module, excluding
# blank lines and `//` comment/doc lines.
#
#   scripts/loc.sh                  # one line per crate + total
#   scripts/loc.sh crates/smb       # one line per file of that crate + total
#   scripts/loc.sh --since <rev>    # per crate: lines at <rev>, now, delta
#
# `--since` reads <rev>'s files with `git show`; the working tree is what
# "now" counts, and nothing in it is touched.
set -euo pipefail
cd "$(dirname "$0")/.."

# Code lines of the one file on stdin.
count() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

# The whole-stack benchmark package (its own manifest, vendored stand-ins)
# lives under crates/bench/src/bin/benchmark/ and is not the bench crate's code.
files() {
    find "$1" -name '*.rs' -not -path '*/bin/benchmark/*' | sort
}

# Code lines of crate directory $1 in the working tree.
crate_now() {
    local n=0 f
    [ -d "$1/src" ] || { echo 0; return; }
    for f in $(files "$1/src"); do
        n=$((n + $(count < "$f")))
    done
    echo "$n"
}

# Code lines of crate directory $2 at revision $1.
crate_at() {
    local n=0 f
    for f in $(git ls-tree -r --name-only "$1" -- "$2/src" | grep '\.rs$' | grep -v '/bin/benchmark/'); do
        n=$((n + $(git show "$1:$f" | count)))
    done
    echo "$n"
}

if [ "${1:-}" = "--since" ]; then
    rev=${2:?usage: scripts/loc.sh --since <rev>}
    git rev-parse --verify -q "$rev^{commit}" > /dev/null || { echo "unknown revision: $rev" >&2; exit 2; }
    then_total=0
    now_total=0
    printf '%6s %6s %6s  %s\n' then now delta crate
    for crate in $( (git ls-tree -d --name-only "$rev" crates/; ls -d crates/*/ | sed 's:/$::') | sort -u); do
        a=$(crate_at "$rev" "$crate")
        b=$(crate_now "$crate")
        then_total=$((then_total + a))
        now_total=$((now_total + b))
        printf '%6d %6d %+6d  %s\n' "$a" "$b" $((b - a)) "$crate"
    done
    printf '%6d %6d %+6d  total\n' "$then_total" "$now_total" $((now_total - then_total))
    exit 0
fi

total=0
if [ $# -gt 0 ]; then
    for f in $(files "$1/src"); do
        n=$(count < "$f")
        total=$((total + n))
        printf '%6d  %s\n' "$n" "$f"
    done
else
    for crate in crates/*/; do
        n=$(crate_now "${crate%/}")
        total=$((total + n))
        printf '%6d  %s\n' "$n" "${crate%/}"
    done
fi
printf '%6d  total\n' "$total"
