#!/usr/bin/env bash
# Build the `xfrag` binary and the e2e benchmark from source, then run the
# benchmark once; every argument goes to `e2e` (see README.md). Run it from
# the repository root: the benchmark works in `.e2e_work/` there and reads
# BENCHMARK.json for `--compare`.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p xfrag-cli
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
exec "$target/release/e2e" --xfrag "$target/release/xfrag" "$@"
