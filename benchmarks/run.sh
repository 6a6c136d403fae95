#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build stackbench from source
# inside the checkout, then run it with the arguments given. Everything the
# build and the run write stays under the checkout: the binary and Go's build
# cache in .bench_build/, scratch checkpoints and spans in benchmarks/out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/stackbench" ./cmd/stackbench
cd "$root"
exec "$build/stackbench" "$@"
