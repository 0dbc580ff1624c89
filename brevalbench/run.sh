#!/usr/bin/env bash
# Builds the real brevald server (from the repository's workspace) and the
# brevalbench harness (its own workspace) into one target directory, then
# runs the harness: `bash brevalbench/run.sh [run arguments]`, from the
# repository root. Build output goes to stderr, so the harness's result
# JSON stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p brevald 1>&2
cargo build --release --quiet --manifest-path brevalbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/brevalbench" run "$@"
