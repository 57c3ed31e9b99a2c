#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload des-corridor --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, scratch stores, traces)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
