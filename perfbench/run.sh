#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs one
# benchmark run:
#   bash perfbench/run.sh --workload hot_mix --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail
if command -v dune >/dev/null 2>&1; then
  DUNE=(dune)
elif command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi
"${DUNE[@]}" build --root . ./bin/fqcli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
