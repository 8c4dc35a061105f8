#!/usr/bin/env bash
# Builds the benchmark and the command-line tools it takes reference
# digests from, then runs one workload. Run it from the repository root;
# every argument goes to the `workloads` binary:
#
#   bash benchmark/run.sh --workload paper-repro --seed 42 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/workloads" "$@"
