#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch stores all
# live under .bench_build/ in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
