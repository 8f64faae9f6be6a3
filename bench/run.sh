#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout it stands in and runs it, keeping the Go build cache and every
# scratch file inside that checkout (.bench_build/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local TMPDIR="$build/tmp"
go build -C "$here" -o "$build/uqsim-bench" .
exec "$build/uqsim-bench" "$@"
