#!/usr/bin/env bash
# BENCHMARK.json's command. It builds the benchmark inside the checkout
# (.bench_build/, with Go's build cache and temporary files, so that
# nothing is written outside the checkout) and runs it with the arguments
# given. By hand, `go run -C bench altrun/bench` does the same with the
# user's own build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
