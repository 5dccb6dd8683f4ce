#!/usr/bin/env bash
# Builds the programs under test (speedtestd, speedctx) and the perfbench
# program from the checkout it is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, Go cache, segment
# directory and trace file lands under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/speedtestd || ! -d cmd/speedctx || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: go.mod, cmd/speedtestd, cmd/speedctx and perfbench/ are required" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/xdg" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gopath/pkg/mod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/xdg" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$build/bin/" ./cmd/speedtestd ./cmd/speedctx >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
