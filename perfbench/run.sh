#!/usr/bin/env bash
# Builds the thirstyflops CLI and the benchmark harness in release mode,
# then runs the harness against the CLI. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout carries only the harness's record
# line and its final result line.
set -euo pipefail
cd "$(dirname "$0")/.."
# Both builds share one target directory (the harness's own workspace
# would otherwise default to perfbench/target).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --bin thirstyflops >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bin "$target/release/thirstyflops" "$@"
