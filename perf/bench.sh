#!/usr/bin/env bash
# Fixed-length benchmark entry point, run from the root of a source tree:
#   bash perf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds perf.exe from source (build output goes to stderr), then runs
# `perf bench`, whose last line of stdout is the JSON result. Fails
# before printing anything when the tree cannot be built.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perf/perf.exe 1>&2
exec ./_build/default/perf/perf.exe bench "$@"
