#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments. Everything the Go toolchain writes (build cache, temp
# files, its own configuration) is kept under .bench_build, so a run reads
# and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
