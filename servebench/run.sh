#!/usr/bin/env bash
# Builds rcserved and the benchmark program from this checkout and runs
# the program with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload tenant_mix --seed 1 --seconds 45 --trace 0
#   bash servebench/run.sh --validate
#
# Build outputs, the Go build cache and the run's temporary data dirs
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/rcserved" ./cmd/rcserved
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -root "$root" -rcserved "$out/rcserved" "$@"
