#!/usr/bin/env bash
# Builds stagebench from the checkout this script sits in and runs it with
# the given arguments. Everything the Go toolchain writes — build cache,
# module cache, configuration — is kept under .bench_build in that checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/bin/stagebench" .)
cd "$root"
exec "$build/bin/stagebench" "$@"
