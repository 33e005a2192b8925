#!/usr/bin/env bash
# Builds the CPPR benchmark from the sources of the checkout it is run
# from and runs it. Run from the repository root:
#
#   bash cpprperf/run.sh --workload signoff_cold --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ in the
# checkout. Build output goes to stderr, so the last stdout line is the
# benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/cpprperf" && go build -o "$out/cpprperf" .) >&2
exec "$out/cpprperf" "$@"
