#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Every build artifact (the binary, the Go build cache, the toolchain's
# scratch and telemetry files) stays under .bench_build at the checkout
# root, so the benchmark reads and writes nothing outside the checkout
# besides the Go toolchain itself and the host descriptors in /proc and /sys.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

# A missing or broken module (for example a directory that holds only the
# benchmark's own files) fails here, before any result is printed.
env HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go build -C "$bench_dir" -buildvcs=false -o "$build/perfbench" . >&2

exec "$build/perfbench" --root "$root" "$@"
