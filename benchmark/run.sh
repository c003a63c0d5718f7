#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. BENCHMARK.json names this script as its command:
#
#   bash benchmark/run.sh --workload rpc_small --seed 7 --seconds 12 --trace 0
#
# Everything the build writes — the binary, Go's build cache, temporary
# files — stays under .bench_build/ in the checkout. The benchmark is a
# module of its own (benchmark/go.mod) that replaces the `aide` module
# with the repository around it, so in a directory that holds nothing but
# the benchmark the build fails and this script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/aide-benchmark" .)

cd "$root"
exec "$build/aide-benchmark" "$@"
