#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark binary, e.g.
#   bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 10 --trace 0
# Everything the build leaves behind goes under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
# Set-up time is counted from here, the start of the benchmark process.
export PERFBENCH_EXEC_US="${EPOCHREALTIME/[.,]/}"
exec "$out/perfbench" "$@"
