#!/usr/bin/env bash
# What CI runs, one leg per job of .github/workflows/ci.yml. Every assertion
# about behaviour is a `cargo test` (the `test` leg); the other legs are what
# a test cannot be: lints, the release build's own sweeps, the perf gate.
# Offline, from a clean checkout, and nothing is left behind in it: sweeps
# run in a temporary directory that goes when the script exits.
#
# usage: scripts/ci.sh LEG [BASE_REF]
#   LEG       build | test | lint | checked | alloc | census |
#             release-digests | perf-gate | all
#   BASE_REF  what perf-gate measures against (default HEAD~1)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# The release perf_sweep at scale $1 with the remaining arguments, run in
# (and caching under) $tmp; only its stderr banners are shown.
sweep() {
    local scale=$1
    shift
    (cd "$tmp" && DCL1_SCALE=$scale DCL1_CACHE_DIR=$tmp/cache \
        cargo run --release --offline --quiet --manifest-path "$root/Cargo.toml" \
        -p dcl1-bench --bin perf_sweep -- "$@" >/dev/null)
}

leg_build() { cargo build --release --offline --workspace --bins; }

leg_test() { cargo test -q --offline --workspace; }

leg_lint() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
    # Exits 1 on any unannotated finding of the determinism / truncation /
    # shard-safety rules, then on a stale fingerprint or rule census.
    cargo run --release --offline --quiet -p simcheck -- lint
    cargo run --release --offline --quiet -p simcheck -- schema
    # NoC#2's shape is decided in noc2.rs only.
    if grep -nE 'Noc2Kind::|Noc2Net' crates/dcl1/src/machine.rs crates/dcl1/src/shard.rs; then
        return 1
    fi
}

# The conservation-invariant harness over a private, a shared and a
# clustered design (tests/checked_sim.rs holds checked == unchecked bytes).
leg_checked() {
    local design
    for design in pr4 sh16 sh16+c8+boost; do
        sweep smoke --check --design="$design" --only=C-BLK
    done
}

# Zero steady-state allocations on the hot paths.
leg_alloc() { cargo run --release --offline --quiet -p alloc-probe; }

# What a step costs, counted: the component visits the smoke grid makes per
# step (`dbg --census`, EXPERIMENTS.md "Where a step goes"). An exact,
# repeatable count, so the ceiling needs no noise band; it was 143.7 before
# blocked components slept.
leg_census() {
    (cd "$tmp" && DCL1_SCALE=smoke cargo run --release --offline --quiet \
        --manifest-path "$root/Cargo.toml" -p dcl1-bench --bin dbg -- --census) |
        tee /dev/stderr | awk '$1 == "visits" { ok = $4 <= 70 } END { exit !ok }'
}

# The release build on its own: stepping and fast-forward dump the same
# bytes on the smoke grid (tests/contract.rs pins that digest, on a build
# with debug assertions), and the quarter grid keeps its digest on the
# default single domain. grep fails on an absent key as on a wrong value.
leg_release_digests() {
    sweep smoke --stats-out=ff.txt
    sweep smoke --no-fast-forward --stats-out=step.txt
    cmp "$tmp/ff.txt" "$tmp/step.txt"
    sweep quarter --json=quarter.json
    grep -q '"scale": "Quarter"' "$tmp/quarter.json"
    grep -q '"effective_max": 1,' "$tmp/quarter.json"
    grep -q '"stats_digest": "2e98351861e1a7f3"' "$tmp/quarter.json"
}

leg_perf_gate() { scripts/perf-gate.sh "${1:-HEAD~1}"; }

usage() {
    echo "usage: $0 build|test|lint|checked|alloc|census|release-digests|perf-gate|all [BASE_REF]" >&2
    exit 2
}

# Legs take no argument but perf-gate's optional BASE_REF.
run() {
    local leg=$1 t0=$SECONDS
    shift
    declare -F "leg_${leg//-/_}" >/dev/null || usage
    echo "#### ci.sh $leg"
    "leg_${leg//-/_}" "$@"
    echo "#### ci.sh $leg: ok, $((SECONDS - t0)) s"
}

[ $# -ge 1 ] || usage
if [ "$1" = all ]; then
    shift
    t0=$SECONDS
    for leg in build test lint checked alloc census release-digests perf-gate; do
        run "$leg" "$@"
    done
    echo "#### ci.sh all: ok, $((SECONDS - t0)) s"
else
    run "$@"
fi
