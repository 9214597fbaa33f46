#!/usr/bin/env bash
# Builds perfbench from the repository's source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ycsb --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and on-disk state stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" == /* ]] || out="$root/$out"
mkdir -p "$out"

bin="$out/perfbench"
# Rebuild only when a Go source is newer than the binary: relinking on
# every run would leave megabytes of dirty pages for the durable runs'
# fsyncs to flush.
if [[ ! -x "$bin" || -n "$(find "$root/go.mod" "$root/internal" "$root/perfbench" \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]]; then
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
	(cd "$root/perfbench" && go build -o "$bin.tmp" . && mv "$bin.tmp" "$bin")
fi
exec "$bin" --workdir "$out" "$@"
