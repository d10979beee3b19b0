#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the build and the run write stays inside the checkout:
# the Go build cache, the binary and the run's temp files under
# .bench_build/, span files under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The driver's checkout is not a git repository; a developer's is.
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -C bench -o "$build/kyrix-bench" .
exec "$build/kyrix-bench" "$@"
