#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root: bash bench/run.sh [flags].
# Everything the build writes stays under .bench_build in the root, and
# the build uses only the local toolchain and the repository's sources.
# The binary is rebuilt only when a Go source, go.mod or the toolchain
# changed since the last build, which saves the go command's own check
# (over a second) on every run.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
stamp="$({ go version; find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print0 | sort -z | xargs -0 sha256sum; } | sha256sum)"
if [[ ! -x "$build/bench" || "$(cat "$build/bench.stamp" 2>/dev/null)" != "$stamp" ]]; then
	go -C bench build -o "$build/bench" .
	echo "$stamp" >"$build/bench.stamp"
fi
exec "$build/bench" "$@"
