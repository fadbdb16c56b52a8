#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload replay-endurance --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go build cache stay under .bench_build in
# the checkout. Without the repository's sources next to perfbench/ the
# build fails and the script exits nonzero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
