#!/usr/bin/env bash
# Builds the pulsedos benchmark from source and runs it. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload attack-10k --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch files
# stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -d "$root/benchmark" ]; then
	echo "benchmark: run from the pulsedos repository root (go.mod, internal/ and benchmark/ expected in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/pulsedos-benchmark" .)
exec "$build/pulsedos-benchmark" "$@"
