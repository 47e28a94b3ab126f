#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (--workload, --seed, --seconds, --trace). Run it from the
# root of the checkout. Everything the Go toolchain writes — build cache,
# temporary files, the binary — stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$root/benchmark" -o "$build/kmem-benchmark" .
exec "$build/kmem-benchmark" "$@"
