#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout and replaces this shell with it: one process, no children left.
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/omsbm" ./cmd/omsbm)
cd "$root"
exec "$build/omsbm" -tmp "$build" -spec "$root/BENCHMARK.json" "$@"
