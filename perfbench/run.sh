#!/usr/bin/env bash
# Builds the varbench end-to-end benchmark from the source tree it is run
# from, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload collect --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a varbench checkout. Every file the build and the
# run write (Go build cache, binary, stores, spans) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]] || ! grep -q '^module varbench$' go.mod; then
	echo "perfbench: run from the root of a varbench checkout (no varbench go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
