#!/usr/bin/env bash
# Builds the lifecycle benchmark from the checkout it sits in and runs it.
# Usage, from the checkout root:
#   bash lcbench/run.sh --workload checkout --seed 1 --seconds 20 --trace 0
# Build output, the Go build cache, scratch repositories and span dumps all
# go under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$here" && go build -o "$out/lcbench" .)
exec "$out/lcbench" -work "$out" -commit "$commit" "$@"
