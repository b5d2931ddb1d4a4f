#!/usr/bin/env bash
# The repo benchmark's one command. Builds the harness (offline, release)
# and hands the arguments over:
#
#   benchmark/run.sh [--seed S]                  every workload, untraced then traced, with a summary
#   benchmark/run.sh --smoke                     harness self-tests, among them the suite at 1/20 of the counts
#   benchmark/run.sh --check-repeat              the suite twice; fails unless the two agree within BENCHMARK.json's bounds
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                                one workload, one pass; last stdout line is the result object
#   benchmark/run.sh screen FAMILY FROM TO [FACTOR]
#   benchmark/run.sh capture-bb SEED:LAYOUT:NODES...
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

manifest=benchmark/Cargo.toml
# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hslb-benchmark"

for arg in "$@"; do
    case "$arg" in
        --workload | screen | capture-bb)
            exec "$bin" "$@"
            ;;
        --smoke)
            # The self-tests: unit tests plus tests/schema.rs, which runs
            # the suite at 1/20 of the counts and holds its output to
            # BENCHMARK.json.
            exec cargo test --release --offline --manifest-path "$manifest"
            ;;
    esac
done
exec "$bin" suite "$@"
