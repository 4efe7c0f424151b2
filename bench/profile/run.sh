#!/usr/bin/env bash
# Builds the benchmark and satd from source, then runs one workload:
#   bash bench/profile/run.sh --workload W --seed S --seconds N --trace 0|1
# from the root of the repository.  Build output goes to stderr, so the
# last line of stdout is the result.
set -euo pipefail
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)" || true
dune build --root . ./bench/profile/profile.exe ./bin/satd.exe 1>&2
exec ./_build/default/bench/profile/profile.exe run "$@"
