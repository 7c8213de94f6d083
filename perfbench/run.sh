#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload olap_cached --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the run write
# (Go caches, temp files, the binary, the simulated DFS) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its env file and telemetry counters under the
# user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if ! (cd "$root/perfbench" && go build -o "$out/perfbench.bin" .) >&2; then
  echo "perfbench: build failed (the benchmark needs the repository sources beside it)" >&2
  exit 2
fi
exec "$out/perfbench.bin" "$@"
