#!/usr/bin/env bash
# Builds the release qpilotd and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload cold-random-100q --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs and scratch state go to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --locked --quiet -p qpilot-service --bin qpilotd >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
# The commit, or outside a git checkout a digest of the sources built.
commit="$(git rev-parse --short=12 HEAD 2>/dev/null)" ||
    commit="src-$(find Cargo.toml Cargo.lock crates vendor src perfbench/src -type f \
        | LC_ALL=C sort | xargs cat | cksum | cut -d' ' -f1)"
exec "$target/release/perfbench" --qpilotd "$target/release/qpilotd" \
    --work-dir "$target/perfbench-work" --commit "$commit" "$@"
