#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload study|flowsetup|tracker|all \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write — Go's build cache, the
# binary, spans, study digests and the tracker's shards — stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --state "$build/state" "$@"
