#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# root of a checkout:
#
#   bash bench/run.sh --workload storm --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache and config, the binary, and the temp dir the pipeline
# workload puts its WAL in.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
