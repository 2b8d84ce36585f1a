#!/usr/bin/env bash
# Builds prisimd and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries and the service workload's
# scratch stores.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off GOTELEMETRY=off

go build -o "$out/bin/prisimd" ./cmd/prisimd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --prisimd "$out/bin/prisimd" --workdir "$out/work" "$@"
