#!/usr/bin/env bash
# Builds distbench from source and runs it, from the root of a checkout:
#
#   bash distbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# W is fig2-gm, scale-centroid, cluster-lossy, or all (each workload in
# its own process, one after the other). --trace 0 runs the end-to-end
# binary; --trace 1 the traced one. Build output goes to stderr and to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

workload=""
trace=0
rest=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:-}"; shift 2 ;;
        --trace) trace="${2:-}"; rest+=("$1" "${2:-}"); shift 2 ;;
        *) rest+=("$1"); shift ;;
    esac
done
bin="$CARGO_TARGET_DIR/release/distbench"
if [ "$trace" = 1 ]; then
    bin="${bin}_traced"
fi

if [ "$workload" != all ]; then
    exec "$bin" --workload "$workload" "${rest[@]}"
fi
status=0
for w in fig2-gm scale-centroid cluster-lossy; do
    "$bin" --workload "$w" "${rest[@]}" || status=1
done
exit "$status"
