#!/usr/bin/env bash
# Builds perfbench inside the checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-full --seed 1 --seconds 45 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the
# go command's config) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root is not the javasmt repository root (no go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The go command's own config and telemetry live under the user's
# config dir; point it into the checkout too.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
