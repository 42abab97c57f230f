#!/usr/bin/env bash
# Builds the benchmark into bench/out/ inside the checkout and runs it.
# Every file the build writes stays in there: the Go build cache, the module
# path, the compiler's work directory and the toolchain's telemetry counters.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/bench/out
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$out/bin/bench" .
exec "$out/bin/bench" -root "$root" "$@"
