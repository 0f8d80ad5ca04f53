#!/usr/bin/env bash
# Build `oocq-serve` and the benchmark from source, then run the benchmark.
# Usage (from the repository root):
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds go to $CARGO_TARGET_DIR (default `.bench_build`); cargo's output
# goes to stderr so the last stdout line stays the JSON result.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin oocq-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$root/servebench/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/oocq-servebench" --server "$CARGO_TARGET_DIR/release/oocq-serve" "$@"
