#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Every
# file the build writes (Go build cache, temporaries, the binary) stays
# under .bench_build in the checkout; the go tool fetches nothing, as
# the module has no dependencies.
set -euo pipefail
[ -f go.mod ] || { echo "benchmark/run.sh: run from the module root (no go.mod here)" >&2; exit 2; }
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
