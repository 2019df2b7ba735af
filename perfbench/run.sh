#!/usr/bin/env bash
# Builds and runs the end-to-end serving benchmark. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload car-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes (generated CSVs,
# span files) live under .bench_build/ in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
