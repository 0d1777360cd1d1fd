#!/usr/bin/env bash
# Builds the seal/open benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash sealbench/run.sh --workload ratio-series --seed 1 --seconds 20 --trace 0
# Every build artefact, the Go build cache included, stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local

(cd "$root/sealbench" && go build -o "$out/sealbench" .) >&2
exec "$out/sealbench" --out "$out" "$@"
