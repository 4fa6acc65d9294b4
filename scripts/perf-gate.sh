#!/usr/bin/env bash
# The performance gate: run the ledger (`benchmark/`) on BASE_REF and on this
# checkout, back to back on this host, and compare the two with the bounds
# BENCHMARK.json fixes. Exits non-zero on a regressed or missing metric or a
# rise in failed operations. There is no stored baseline to go stale.
#
# usage: scripts/perf-gate.sh BASE_REF        (HEAD~1, origin/main, a sha)
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 BASE_REF" >&2; exit 2; }
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# Each checkout builds into, and keeps its warm-store fixture under, its own
# directory: a shared CARGO_TARGET_DIR would hand the base's fixture to the
# change.
unset CARGO_TARGET_DIR
ledger=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

# One full set of the tree at $1, written to $tmp/$2.json.
measure() {
    echo "#### $2"
    (cd "$1" && "${ledger[@]}" --out "$tmp/$2.json")
}
compare() {
    echo "#### new against base"
    "${ledger[@]}" compare "$tmp/base.json" "$tmp/new.json"
}

# The base is an export, not a worktree: nothing to unregister if this dies.
echo "#### base is $base, new is $(git describe --always --dirty)"
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
measure "$tmp/base" base
measure . new
compare && exit 0
# A busy host slows whichever side is running: measured on identical trees,
# one pair in five put `shard_pair` and `daemon_warm` 17-38 % apart. A real
# regression shows again in a second pair run in the other order.
echo "#### confirming with a second pair"
measure . new
measure "$tmp/base" base
compare
