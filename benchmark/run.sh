#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the root of
# the checkout. Everything the build and the run write — the Go build cache,
# the binary, temporary files, the default results file — goes under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/elba-bench" .)
cd "$(dirname "$here")"
exec "$out/elba-bench" "$@"
