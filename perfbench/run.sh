#!/usr/bin/env bash
# Builds the shipped `hics` binary and the benchmark harness from source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload fit --seed 1 --seconds 8 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the harness keeps its scratch files there too and
# removes them on exit.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hics-cli --bin hics >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
  --hics "$CARGO_TARGET_DIR/release/hics" \
  --work-dir "$CARGO_TARGET_DIR/perfbench-work" \
  "$@"
