#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository:
#
#   bash _perfbench/run.sh --workload gen|check|eval|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the span
# files of traced runs. The benchmark is its own Go module (_perfbench/go.mod)
# that replaces the repository module with the checkout it sits in, so it
# fails to build, and exits non-zero without a result, anywhere else. The
# directory name starts with an underscore so that tools walking the
# repository module (go ./... patterns, rlibm-lint) leave the benchmark out:
# it is not library code and does not follow the coefficient-path rules.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/gopath"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "${here}" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
