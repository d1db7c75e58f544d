#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload rpc-ucobs-tcp --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout's root: the compiler cache, the binary (bin/) and the reports
# and span files (perfbench/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's env and telemetry files
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
