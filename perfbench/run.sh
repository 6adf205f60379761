#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload train-steady --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build caches, the binary and run outputs
# all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
