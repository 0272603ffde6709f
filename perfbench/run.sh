#!/usr/bin/env bash
# Builds the perfbench program from source and runs it with the given
# flags. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload cc-shared --seed 1 --seconds 24 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the perfbench binary.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build/perfbench
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	PPROF_TMPDIR="$out/tmp" PPROF_BINARY_PATH="$out"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
