#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, spill and worker
# run files, and the span dump of a traced run. The build is offline;
# the benchmark module depends on nothing but the repository's own
# module (perfbench/go.mod replaces it with ../).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/perfbench"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
cd "$root"
exec "$build/perfbench/perfbench" "$@"
