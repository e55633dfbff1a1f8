#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash _perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, records
# and span files all go to .bench_build/ under the root, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
