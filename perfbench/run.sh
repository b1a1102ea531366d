#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#	sh perfbench/run.sh --workload figures --seed 42 --seconds 20 --trace 0
#
# Run from the repository root. Every build output, Go cache entry and
# scratch file stays under $CARGO_TARGET_DIR (default .bench_build) in the
# checkout; nothing is fetched, since the module has no dependencies.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the toolchain's telemetry and env files in the
# build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build/run" "$@"
