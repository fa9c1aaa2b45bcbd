#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload sat-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, explore cache directories) stays under .bench_build/ at the root
# of the checkout. The build fails, and so does this script, when the
# library module is not next to bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/catnapbench" .
exec "$out/catnapbench" "$@"
