#!/bin/sh
# Build the benchmark from source and run one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. dune builds into _build with its
# shared cache off, so building and running read and write only inside
# the checkout. Build output goes to stderr; standard output carries
# the benchmark's report, the JSON result last.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . perfbench/main.exe >&2
PERFBENCH_NPROC=$(nproc 2>/dev/null || echo unknown)
PERFBENCH_REV=unknown
if [ -d .git ]; then
  PERFBENCH_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_NPROC PERFBENCH_REV
exec ./_build/default/perfbench/main.exe "$@"
