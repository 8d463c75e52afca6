#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build products, the Go build cache and
# the traced run's spans go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/runtime || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of the repository checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Keep every file the toolchain writes inside the checkout, and never
# fetch a toolchain or module.
(
	cd perfbench
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
		GOPROXY=off GOFLAGS=-mod=readonly \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --out "$out" "$@"
