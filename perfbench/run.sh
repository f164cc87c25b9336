#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload drift --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary, Go build and module caches, span files) stay under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Without the repository module beside it (../go.mod) the build fails
# here and the benchmark exits non-zero without printing a result.
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out-dir "$out" "$@"
