#!/bin/sh
# Paired, order-alternated comparison of the end-to-end benchmark at two
# revisions.
#
# Usage: scripts/bench_compare.sh <old-rev> <new-rev> <workload> <pairs>
#   Run from inside the repository.  <workload> is an `e2e_bench` workload
#   (meter_async, adhoc_reads, meter_sync_paced).
#
# Each revision is exported with `git archive` into its own directory
# outside the repository (no worktree bookkeeping is left in `.git`) and
# `e2e_bench` is built there in release mode; a later call reuses the build.
# Pair i runs both binaries back to back, old first in odd pairs and new
# first in even ones, so drift of the host favours neither side.  The
# summary prints, per end-to-end metric of BENCHMARK.json, each side's
# median with its quartiles, the ratio new/old, and how many pairs each
# side won (ties count for neither).
#
# Each run lasts BENCHMARK.json's run_seconds.
#
# Environment:
#   SEED                generator seed (default 7)
#   BENCH_COMPARE_DIR   checkouts and results (default
#                       ${TMPDIR:-/tmp}/tsp-bench-compare)
# Needs git, cargo, tar and python3.
set -eu

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <old-rev> <new-rev> <workload> <pairs>" >&2
    exit 2
fi
workload=$3
pairs=$4
root=$(git rev-parse --show-toplevel)
base=${BENCH_COMPARE_DIR:-${TMPDIR:-/tmp}/tsp-bench-compare}
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
seed=${SEED:-7}
bin=e2e_bench/target/release/tsp-e2e-bench

# Prints the directory holding a built benchmark of revision $1.
checkout() {
    sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
    dir=$base/$sha
    if [ ! -x "$dir/$bin" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$root" archive "$sha" | tar -x -C "$dir"
        echo "building e2e_bench at $sha" >&2
        cargo build --release --offline --quiet \
            --manifest-path "$dir/e2e_bench/Cargo.toml" >&2
    fi
    echo "$dir"
}

old_dir=$(checkout "$1")
new_dir=$(checkout "$2")
out=$base/results-$workload-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"

# Runs the benchmark in checkout $1 and appends its JSON line to $out/$2.
run() {
    (cd "$1" && "./$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) | tail -n 1 >>"$out/$2.jsonl"
}

i=1
while [ "$i" -le "$pairs" ]; do
    echo "pair $i/$pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run "$old_dir" old
        run "$new_dir" new
    else
        run "$new_dir" new
        run "$old_dir" old
    fi
    i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$out/old.jsonl" "$out/new.jsonl" "$1" "$2" "$workload" <<'EOF'
import json
import sys

spec_path, old_path, new_path, old_rev, new_rev, workload = sys.argv[1:]
spec = json.load(open(spec_path))
old = [json.loads(line) for line in open(old_path)]
new = [json.loads(line) for line in open(new_path)]


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def runs(side):
    bad = sum(1 for r in side if not r["correct"])
    failed = sum(r["failed"] for r in side)
    return f"{len(side)} runs, {bad} not correct, {failed} failed operations"


print(f"{workload}: old {old_rev} ({runs(old)}); new {new_rev} ({runs(new)})")
print(f"{'metric':<18} {'old median (q1-q3)':>28} {'new median (q1-q3)':>28} "
      f"{'new/old':>8} {'won old/new':>12}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    pairs = [(o["metrics"][name]["value"], n["metrics"][name]["value"])
             for o, n in zip(old, new)
             if name in o["metrics"] and name in n["metrics"]]
    if not pairs:
        continue
    sign = 1 if metric["better"] == "higher" else -1
    won_old = sum(1 for o, n in pairs if sign * (o - n) > 0)
    won_new = sum(1 for o, n in pairs if sign * (n - o) > 0)
    oq = quartiles([o for o, _ in pairs])
    nq = quartiles([n for _, n in pairs])
    ratio = nq[1] / oq[1] if oq[1] else float("nan")
    fmt = lambda q: f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})"
    print(f"{name:<18} {fmt(oq):>28} {fmt(nq):>28} {ratio:>8.3f} "
          f"{won_old:>5}/{won_new:<6}")
EOF
echo "raw results: $out" >&2
