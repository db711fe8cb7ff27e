#!/usr/bin/env bash
# Builds zbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary live
# in .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=auto
go -C "$root/bench" build -o "$out/zbench" .
exec "$out/zbench" "$@"
