#!/usr/bin/env bash
# Builds the continuum benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash contbench/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the binary, the Go build cache, temporary files and
# the traced run's span logs.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd contbench && go build -o "$out/contbench" .)
exec "$out/contbench" "$@"
