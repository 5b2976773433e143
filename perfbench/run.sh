#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# given arguments, e.g.:
#   bash perfbench/run.sh --workload admit-full --seed 1 --seconds 30 --trace 0
# Everything the build and the run write -- the Go build cache, the binary,
# data directories and span files -- stays under .bench_build at the root of
# the checkout. Outside a checkout of the repository the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$bench_dir" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
