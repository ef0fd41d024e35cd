#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout, then runs it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the go command writes (binary, build and module caches, its own
# config and telemetry counters) stays under .bench_build at the checkout
# root, so a run reads and writes only inside its checkout. The module has no
# dependency outside this repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$out/first-benchmark" .)
cd "$root"
exec "$out/first-benchmark" "$@"
