#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (nothing is written
# outside the checkout, the Go caches included) and runs it with the given
# flags from the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
