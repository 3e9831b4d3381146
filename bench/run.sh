#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload hash_mem --seed 1 --seconds 26 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes to
# .bench_build/ at the root of the checkout, which .gitignore names, so a run
# touches nothing outside the checkout and leaves `git status` clean. The first
# build in a checkout compiles the standard library too (about a minute);
# later ones are a cache hit.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$here/../.bench_build/tmp"
build=$(cd "$here/../.bench_build" && pwd)

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# Never fetch a toolchain or a module: the benchmark needs neither.
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/cyclojoin-bench" .
exec "$build/cyclojoin-bench" "$@"
