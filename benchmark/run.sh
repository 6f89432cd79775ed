#!/usr/bin/env bash
# Entry point the harness runs from the root of a checkout:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# It builds the benchmark from source into .bench_build/ (every run: a
# warm build cache makes that a fraction of a second) and runs it. The
# Go build cache and everything else the toolchain writes stay inside
# the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local \
		go build -buildvcs=false -o "$build/newton-benchmark" .
)
exec "$build/newton-benchmark" "$@"
