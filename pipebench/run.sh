#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash pipebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The go command's caches, temp files and telemetry counters (kept under
# the user config directory) all land in .bench_build as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/pipebench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
