#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root (go's caches
# included, so nothing is written outside the checkout) and runs it with the
# given arguments. An unchanged tree rebuilds from the cache in well under
# a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config"
go -C "$here" build -o "$build/slingshot-bench" .
exec "$build/slingshot-bench" -out "$here/out" "$@"
