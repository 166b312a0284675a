#!/usr/bin/env bash
# Runs every benchmark workload once, untraced, from the repository root:
#   perfbench/run_all.sh [seed] [seconds]
# Each workload prints its manifest, repetitions, metrics and JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0x15CA}"
seconds="${2:-30}"
for workload in peak-five light-harvest policy-lab; do
    echo "== $workload"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
