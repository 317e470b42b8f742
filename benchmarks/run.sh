#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything it
# writes — Go's build cache, module path, config/telemetry directory and
# temp files, the binary, scan_cold's store directory — stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/umzi-benchmarks" .)
cd "$root"
exec "$build/umzi-benchmarks" -tmpdir "$build/tmp" "$@"
