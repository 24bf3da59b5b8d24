#!/usr/bin/env bash
# run.sh — build the benchmark from source and run one workload.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload phy-dense --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so nothing is written outside
# it. A checkout without the aroma sources fails the build and exits
# non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

if ! (cd "$here" && go build -o "$build/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
