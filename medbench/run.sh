#!/usr/bin/env bash
# Builds the medbench binary from the sources of the checkout it sits in
# and runs it with the given arguments. Run it from the repository root:
#
#   bash medbench/run.sh --workload apply --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# files) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ -z "${MEDBENCH_COMMIT:-}" ]; then
	MEDBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export MEDBENCH_COMMIT
fi

(cd "$here" && go build -o "$out/medbench" .) >&2
exec "$out/medbench" --root "$root" "$@"
