#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash vnlperf/run.sh --workload analyst --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, data directories, span dumps) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

# The benchmark imports the repository's packages through a replace of its
# parent directory; without those sources the build fails and so does the run.
(cd "$root/vnlperf" && go build -o "$out/vnlperf" .) >&2
exec "$out/vnlperf" -build-dir "$out" "$@"
