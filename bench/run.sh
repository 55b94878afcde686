#!/usr/bin/env bash
# Builds the benchmark (bench/macbench) from this checkout and runs it. Run from
# the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-o run.json]
#   bash bench/run.sh compare parent.json change.json
#
# Every build product, Go cache and temporary file stays under
# .bench_build/ in the current directory, and the Go toolchain is kept
# offline: the benchmark needs nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/bin/macbench" ./macbench
exec "$out/bin/macbench" "$@"
