#!/usr/bin/env bash
# Builds the benchmark, and the `cable` binary its serve workloads
# drive, from this checkout's source, then runs it with the given
# arguments. Honours CARGO_TARGET_DIR.
#
#   bash cablebench/run.sh --workload mine --seed 2003 --seconds 15 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/cablebench" "$@"
