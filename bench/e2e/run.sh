#!/usr/bin/env bash
# Builds the ses binary and the benchmark driver from this checkout, then
# runs the driver with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload match_q1 --seed 7 --seconds 12 --trace 0
#
# Run it from the root of the repository. Build output goes to stderr, so
# the driver's JSON result stays the last line of stdout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "bench/e2e/run.sh: run from the repository root (no dune-project, lib/ or bin/ here)" >&2
  exit 1
fi

dune build --root . bin/ses_cli.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe \
  --ses ./_build/default/bin/ses_cli.exe "$@"
