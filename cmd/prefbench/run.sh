#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   sh cmd/prefbench/run.sh -workload compile-large -seed 1 -seconds 20 -trace 0
#
# The binary, the Go build cache and the go command's temporary files
# all stay under .bench_build/, and nothing is fetched over the network.
set -eu
if [ ! -f go.mod ] || [ ! -f cmd/prefbench/go.mod ]; then
	echo "prefbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd cmd/prefbench && go build -o "$out/prefbench" .)
exec "$out/prefbench" "$@"
