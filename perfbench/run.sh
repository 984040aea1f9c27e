#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the repository root; every argument passes through, e.g.
#   bash perfbench/run.sh --workload uni-busy --seed 1 --seconds 10 --trace 0
# Build products, the Go build cache and run scratch space all stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="${PWD}/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
