#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload udp_calls --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, run records and replay spans all go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout. Build
# output goes to standard error so the result stays the last line of
# standard output.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" --out "$build" "$@"
