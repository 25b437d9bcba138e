#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-1024 --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, the binary, reports,
# traces and profiles) stays under .bench_build/ in the repository.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/pprof"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"
# The module has no dependencies beyond the repository itself: never
# reach for a proxy, a checksum database or another toolchain.
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off GOPROXY=off GOSUMDB=off

cd "$root"
go -C perfbench build -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
