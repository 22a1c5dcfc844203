#!/usr/bin/env bash
# Builds the benchmark and wdcserved from the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash bench/run.sh --workload des-paper --seed 1 --seconds 20 --trace 0
#
# --trace 1 makes a traced run whose spans and CPU profiles land in
# .bench_build/trace/<workload>. Every other argument passes through to
# wdcperf (see bench/README.md). Everything the build and the run write stays
# under .bench_build: the Go build cache, temporary files and the binaries.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

args=()
workload=all
trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	--trace | -trace)
		trace="$2"
		shift 2
		;;
	--workload | -workload)
		workload="$2"
		args+=(-workload "$2")
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
if [ "$trace" = 1 ]; then
	args+=(-trace "$build/trace/$workload")
elif [ "$trace" != 0 ]; then
	echo "run.sh: --trace takes 0 or 1, got $trace" >&2
	exit 2
fi

(cd bench && go build -o "$build/wdcperf" ./cmd/wdcperf)
go build -o "$build/wdcserved" ./cmd/wdcserved
exec "$build/wdcperf" -server "$build/wdcserved" "${args[@]}"
