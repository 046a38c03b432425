#!/usr/bin/env bash
# Builds causalfl and the benchmark from this checkout, then runs one
# benchmark run. Arguments pass through to the harness:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything it builds or writes stays under
# .bench_build/ in the checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a causalfl checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/runs"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/bin/causalfl" causalfl/cmd/causalfl && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -serve-bin "$out/bin/causalfl" -work "$out/runs" "$@"
