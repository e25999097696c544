#!/bin/sh
# Counts non-test, non-comment, non-blank Rust lines per crate.
#
# Rule, per .rs file: stop at the first `#[cfg(test)]` in column 0, then
# count every line that is neither blank nor (after leading whitespace) a
# `//` comment.  Doc comments (`///`, `//!`) are comments too.
#
# Usage: scripts/loc.sh [SRC_DIR...]
#   With no arguments, reports every crates/*/src directory and the total.
#   Run from the repository root.  Needs only awk and coreutils.
set -eu

count_dir() {
    find "$1" -name '*.rs' -type f | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             { t = $0; sub(/^[ \t]+/, "", t)
               if (t == "" || substr(t, 1, 2) == "//") next
               n++ }
             END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}

if [ "$#" -eq 0 ]; then
    set -- crates/*/src
fi

total=0
for dir in "$@"; do
    n=$(count_dir "$dir")
    printf '%8d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
