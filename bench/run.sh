#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload session-serial --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file goes under .bench_build/
# in the current directory, and the Go toolchain is kept offline, so a
# run reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
