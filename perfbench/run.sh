#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload sim-zoo --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a shortcutmining checkout. The binary, the Go
# build cache, the journals of serve-durable and the trace files of
# --trace 1 runs all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a shortcutmining checkout (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes inside the checkout, and never
# reach for a network toolchain or module proxy.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --work "$out" "$@"
