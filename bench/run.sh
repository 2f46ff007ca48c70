#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload sweep_select --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. The Go build cache, the toolchain's
# configuration and telemetry, the binary and the span files all stay under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
