#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build cmd/adasum-bench
# from source into .bench_build/ and run it with the given arguments.
# Everything the build writes — binary, Go build cache, temp files —
# stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# cmd/adasum-bench is its own module; its go.mod points at the
# repository's module two directories up, so this fails (non-zero) in a
# directory that holds only the benchmark.
go build -C cmd/adasum-bench -o "$build/adasum-bench" .
exec "$build/adasum-bench" "$@"
