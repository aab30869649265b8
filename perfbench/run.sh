#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fig10-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays under
# .bench_build/ in the repository root (binary, Go build cache, temp
# stores, span dumps). The build needs the repository's own module one
# directory up; without it the build fails and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
