#!/usr/bin/env bash
# The benchmark's one entry point: build the harness from this tree and run it.
# Everything the build writes (module cache, build cache, temp files, binaries)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/xks-bench" .)
cd "$root"
exec "$build/bin/xks-bench" "$@"
