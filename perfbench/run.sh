#!/usr/bin/env bash
# Builds cmd/lcds-server and the perfbench driver from the checkout's source,
# then runs the driver. Run from the repository root:
#
#   bash perfbench/run.sh --rates read-single=8000 --workload read-single --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and output stays under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/lcds-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/lcds-server and perfbench/ not found here)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
export GOPATH="$out/gopath"

go build -o "$out/lcds-server" ./cmd/lcds-server
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -server "$out/lcds-server" -out "$out/out" "$@"
