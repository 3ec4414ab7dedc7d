#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given (see BENCHMARK.json and bench/README.md). Build
# outputs and the Go caches stay under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/offloadnn-bench" .)
cd "$root"
exec "$build/offloadnn-bench" "$@"
