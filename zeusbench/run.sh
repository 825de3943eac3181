#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash zeusbench/run.sh --workload local-write --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root. The benchmark module sits inside the repository and
# imports the engine through `replace zeus => ../`, so it fails to build
# (and this script exits non-zero) anywhere but in a full checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/run"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/zeusbench" && go build -o "$out/zeusbench" .)
cd "$root"
exec "$out/zeusbench" --workdir "$out/run" "$@"
