#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload lookup-large --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C bench build -o "$out/swbench" .
exec "$out/swbench" "$@"
