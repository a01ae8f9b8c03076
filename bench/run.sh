#!/usr/bin/env bash
# Builds benchledger from this checkout and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload offline-dense --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file go to .bench_build/
# at the repository root; nothing is fetched from the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/cache" GOMODCACHE="$out/mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/benchledger" ./cmd/benchledger
exec "$out/benchledger" "$@"
