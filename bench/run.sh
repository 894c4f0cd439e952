#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root with the arguments given. Go's build cache and the
# toolchain's telemetry counters (kept under the user config directory) go
# there too, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
(cd "$root/bench" && GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config" \
	go build -o "$root/.bench_build/bench" .)
cd "$root"
exec "$root/.bench_build/bench" "$@"
