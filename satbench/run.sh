#!/usr/bin/env bash
# Builds the satbench module from this checkout and runs it:
#   bash satbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes stays under the build directory inside the checkout
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary,
# scratch result files and the traced run's Chrome trace.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/satbench" && go build -o "$build/satbench" .)
exec "$build/satbench" --out "$build/satbench-out" "$@"
