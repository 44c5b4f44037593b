#!/usr/bin/env bash
# Builds the benchmark and hicsd from this checkout into .bench_build/ and
# runs one workload; the arguments are passed on, e.g.
#   bash perfbench/run.sh --workload fit-tall --seed 1 --seconds 25 --trace 0
# The Go build cache lives in .bench_build/ too, so a run reads and writes
# only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/hicsd" hics/cmd/hicsd
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
