#!/usr/bin/env bash
# Builds the benchmark of record from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#
# Every build product (compiler cache, module cache, Go's own config and
# telemetry files, binary) stays under .bench_build at the repository
# root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
