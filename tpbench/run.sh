#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash tpbench/run.sh --workload query_cached --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, scratch stores, spans files)
# all land in .bench_build/ under the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd tpbench && go build -trimpath -o "$out/tpbench" .)
exec "$out/tpbench" --out "$out" "$@"
