#!/bin/sh
# The command BENCHMARK.json names. It builds the benchmark from source in
# the checkout it is started from and runs it with the arguments given:
#
#   sh benchmark/run.sh --workload tcp_echo20 --seed 1 --seconds 15 --trace 0
#   sh benchmark/run.sh -seed 1 -json out.json      (all four workloads)
#
# Everything the build writes (the binary, the go build cache, temporary
# files) stays under .bench_build/ in the checkout; nothing is downloaded.
set -eu

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: start it from the root of the checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

# The benchmark is a module of its own that replaces specrpc with the
# checkout around it, so this fails, as it must, where the product is not.
(cd "$root/benchmark" && go build -o "$build/specrpc-benchmark" .) >&2

exec "$build/specrpc-benchmark" "$@"
