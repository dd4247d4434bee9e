#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload served-hot --seed 1 --seconds 24 --trace 0
#
# Everything the go tool writes goes under .bench_build in the checkout, so
# a run touches nothing outside it.
set -euo pipefail
build=$PWD/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build/bin"
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
