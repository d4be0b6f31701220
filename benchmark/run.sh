#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash benchmark/run.sh --workload line64 --seed 42 --seconds 10 --trace 0
#
# Build output goes to stderr, so the result is the last line of stdout.
# Exits non-zero without a result if the build fails.  The shared dune
# cache is off so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
