#!/usr/bin/env bash
# BENCHMARK.json's command: builds the bench from source and runs it with the
# arguments given. Run from the repository root. Everything the build leaves
# behind, Go's build cache included, stays in .bench_build/ of the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/bench" ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod beside bench/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/htapbench" ./bench
exec "$out/htapbench" "$@"
