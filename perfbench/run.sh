#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload predict-read --seed 1 --seconds 20 --trace 0
#
# The Go build cache lives in .bench_build too, so a run reads and writes
# only inside the checkout. The build fails (and the script exits non-zero)
# when the repository's source is not next to perfbench/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
