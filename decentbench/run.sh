#!/usr/bin/env bash
# Builds the decentsim benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash decentbench/run.sh --workload dht --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the report trees.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$root/decentbench" && go build -o "$build/decentbench" .)
exec "$build/decentbench" "$@"
