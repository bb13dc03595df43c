#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is
# run in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-heavy --seed 1 --seconds 40 --trace 0
#
# The Go build cache, temporary files, the binary, the caches the
# benchmark fills and the span files of traced runs all stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
