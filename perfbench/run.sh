#!/usr/bin/env bash
# Builds the benchmark's server and load generator from this checkout and
# runs one workload (or all of them):
#
#   bash perfbench/run.sh --workload udp-hot --seed 1 --seconds 32 --trace 0
#
# Build outputs, the Go build cache and span files go to .bench_build/ at
# the root of the checkout; nothing is written outside it. The last line
# of standard output is the result as one JSON object.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
(cd "$here" && go build -o "$out/" ./cmd/server ./cmd/bench ./cmd/spin) >&2
exec "$out/bench" --server "$out/server" --spin "$out/spin" --spans-dir "$out" "$@"
