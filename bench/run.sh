#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ (inside
# the checkout, like its Go build cache) and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
# Hermetic: the module needs nothing outside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/vmqbench" .)
exec "$out/vmqbench" "$@"
