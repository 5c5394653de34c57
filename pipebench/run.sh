#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it from the root of a
# checkout:
#
#   bash pipebench/run.sh --workload fresh-stream --seed 7 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, spill files and span dumps all stay
# under .bench_build/ in the checkout. The build fails (and nothing is
# printed on standard output) when the repository's module is not next to
# this directory.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/pipebench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$bench_dir" && go build -o "$out/pipebench" .) >&2
exec "$out/pipebench" --out "$out" "$@"
