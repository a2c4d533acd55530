#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Arguments
# pass through: --workload NAME --seed N --seconds S --trace 0|1.
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files there.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
