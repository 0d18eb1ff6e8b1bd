#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds flexio-bench from source into
# .bench_build/ at the root of the checkout (Go's build cache goes there
# too, so nothing is written outside the checkout) and runs it with the
# arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
# The build needs nothing from the network; make sure it never asks.
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/flexio-bench" .
exec "$build/flexio-bench" "$@"
