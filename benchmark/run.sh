#!/usr/bin/env bash
# Builds hbench (release, offline) and runs the four workloads, untraced
# (end-to-end metrics) and then traced (per-layer metrics). Prints the
# machine header and one line per metric: workload, name, value, unit.
#
#   benchmark/run.sh                       one run per workload, seed 1
#   RUNS=10 RECORD=benchmark/out/A.json benchmark/run.sh
#                                          ten untraced runs per workload
#                                          (seeds 1-10), recorded as a run
#                                          set for `hbench --compare`; the
#                                          traced run is still made once
#
# Exits non-zero as soon as a run fails one of its self-checks.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
hbench="$CARGO_TARGET_DIR/release/hbench"

# The last line of a run is its JSON result, meant for the driver; the
# lines above it are the ones meant for people.
workloads=(power service_mix cache_mixed cache_hits)
for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "${RUNS:-1}"); do
        "$hbench" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 \
            ${RECORD:+--record "$RECORD"} | sed '$d'
    done
done
for workload in "${workloads[@]}"; do
    "$hbench" --workload "$workload" --seed 1 --seconds 10 --trace 1 | sed '$d'
done
