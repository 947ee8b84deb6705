#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything the build and the run leave
# behind stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# Keep the Go toolchain's caches, config and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
if ! go -C "$root/perfbench" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" --dir "$out" "$@"
