#!/usr/bin/env bash
# Builds ringo-server and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/ringo-server" ./cmd/ringo-server >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server-bin "$out/ringo-server" "$@"
