#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# roborepair checkout; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout. Without the roborepair sources next to perfbench/ the build
# fails and the script exits nonzero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "perfbench: no roborepair go.mod in $root" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
bin="$out/perfbench"
(cd perfbench && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
