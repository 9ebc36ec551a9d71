#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/bench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, server state and spans all stay under
# .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/bench/go.mod ]]; then
	echo "run.sh: run from the repository root; go.mod or cmd/bench/go.mod is missing" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/bench build -o "$build/bench" .
exec "$build/bench" -workdir "$build" "$@"
