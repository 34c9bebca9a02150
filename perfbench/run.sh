#!/usr/bin/env bash
# Builds the benchmark together with the ipcd and ipcmodel binaries from
# the checkout it is run in, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload paper|serve-cold --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/ipcd repro/cmd/ipcmodel) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
