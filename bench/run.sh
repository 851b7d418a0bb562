#!/usr/bin/env bash
# Builds the lockbench harness and runs it against the repository checkout in
# the working directory, passing every argument through (see README.md).
# Build caches and scratch files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/bin" "$out/tmp"
(cd bench && go build -o "$out/bin/lockbench" .)
exec "$out/bin/lockbench" "$@"
