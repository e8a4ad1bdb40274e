#!/usr/bin/env bash
# Builds the benchmark program and the aidaserver binary from this checkout,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload news-batch --seed 1 --seconds 20 --trace 0
#
# --workload all runs news-batch, fleet-batch, short-serve and live-serve in
# turn.
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/aidaserver || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a full aida checkout" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The go command's cache, temp files, env file and telemetry counters all
# stay inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go build -o "$build/aidaserver" ./cmd/aidaserver
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -server "$build/aidaserver" "$@"
