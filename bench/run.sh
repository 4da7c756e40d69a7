#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload gac-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (binary, Go build cache, temp files, the solve service's journal) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg"
export GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$out/sagbench-bench" .
exec "$out/sagbench-bench" "$@"
