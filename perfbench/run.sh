#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# the repository; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary, spans and profiles all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
