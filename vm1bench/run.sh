#!/usr/bin/env bash
# Builds vm1bench from source and runs it with the given arguments, e.g.
#
#   bash vm1bench/run.sh --workload aes-closedm1-w20 --seed 102 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, span files
# and QoR records all stay under .bench_build/ in that directory; the Go
# toolchain runs offline and reads no user configuration.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/vm1bench" .)
exec "$out/vm1bench" --out "$out" "$@"
