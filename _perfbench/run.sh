#!/usr/bin/env bash
# Builds the IVY benchmark from the sources of the checkout it sits in
# and runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload pde3d-8p --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache) go to .bench_build/ under the
# current directory, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
