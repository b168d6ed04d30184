#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload brute --seed 1 --seconds 45 --trace 0
#
# The Go build cache, temporary files, the go command's configuration
# directory (where it keeps its telemetry counters) and the binary live
# under .bench_build/ in the working directory, so nothing is written
# outside the checkout. Without the repository's own go.mod next to bench/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
