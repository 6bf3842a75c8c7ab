#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Invoked from the repository root as `bash bench/run.sh [flags]`; the
# flags are the benchmark's own (see bench/README.md). Build outputs,
# the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/ptrider-perf" .
exec "$out/ptrider-perf" -workdir "$out/run" "$@"
