#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload mesh-dense --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write goes under .bench_build/ there, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" GOPATH="$out/home/go" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
