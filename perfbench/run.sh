#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte it
# writes (build cache, temporaries, store files, spans) under the
# checkout's .bench_build. Arguments go to the binary unchanged:
#
#   bash perfbench/run.sh --workload rank_cold --seed 7 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that replaces the
# lapushdb module with the checkout it sits in, so the build fails, and
# this script exits non-zero without a result, anywhere the repository's
# sources are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C "$here" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
