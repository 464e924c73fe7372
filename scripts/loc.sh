#!/usr/bin/env bash
# Net code size, the measure every PR reports (ROADMAP aim 2): per crate,
# lines of `src/**/*.rs` up to the file's `#[cfg(test)]` module, excluding
# blank lines and `//` comment/doc lines.
#
#   scripts/loc.sh                  # one line per crate + total
#   scripts/loc.sh crates/smb       # one line per file of that crate + total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

# The whole-stack benchmark package (its own manifest, vendored stand-ins)
# lives under crates/bench/src/bin/benchmark/ and is not the bench crate's code.
files() {
    find "$1" -name '*.rs' -not -path '*/bin/benchmark/*' | sort
}

total=0
if [ $# -gt 0 ]; then
    for f in $(files "$1/src"); do
        n=$(count "$f")
        total=$((total + n))
        printf '%6d  %s\n' "$n" "$f"
    done
else
    for crate in crates/*/; do
        n=0
        for f in $(files "${crate}src"); do
            n=$((n + $(count "$f")))
        done
        total=$((total + n))
        printf '%6d  %s\n' "$n" "${crate%/}"
    done
fi
printf '%6d  total\n' "$total"
