#!/usr/bin/env bash
# Builds the benchmark and qindbd from the checkout's source into
# .bench_build/ (Go's build cache too, so nothing is written outside the
# checkout) and runs the benchmark with the arguments given:
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bench" .)
(cd "$root" && go build -o "$out/qindbd" ./cmd/qindbd)
cd "$root"
exec "$out/bench" -qindbd "$out/qindbd" "$@"
