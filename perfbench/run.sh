#!/bin/sh
# Builds flashmem-serve and the plan-service benchmark from source, then
# runs the benchmark. Run it from the repository root:
#
#	sh perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, snapshots and span files all go under
# .bench_build/ in the repository root.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/flashmem-serve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/flashmem-serve and perfbench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/flashmem-serve" ./cmd/flashmem-serve
cd perfbench
exec go run . -root "$root" "$@"
