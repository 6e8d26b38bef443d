#!/usr/bin/env bash
# Builds the performance ledger from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh [flags]          see bench/README.md for the flags
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, scratch
# corpora, journals, stores and trace files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$build/ppledger" .
exec "$build/ppledger" "$@"
