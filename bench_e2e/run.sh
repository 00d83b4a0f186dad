#!/usr/bin/env bash
# Builds the end-to-end benchmark and the glcv binary from source, then
# runs one workload:
#
#   bash bench_e2e/run.sh --workload atlas|sweep|serve --seed N \
#     --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result. See README.md in this directory.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./bench_e2e/e2e.exe ./bin/glcv.exe 1>&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
