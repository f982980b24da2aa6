#!/usr/bin/env bash
# Builds this package (the driver and the `sltxml` server it spawns) from
# source, then runs the benchmark from the root of the checkout:
#
#   bash benchmark/run.sh --workload paper_mix --seed 1 --seconds 22 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR when set (taken relative to the
# checkout root), else to benchmark/target; run output to benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/sltxml-benchmark" "$@"
