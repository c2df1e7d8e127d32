#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace DIR] [-json FILE]
#   bash bench/run.sh compare -a A1.json ... -b B1.json ...
#
# Every build and run artifact (Go build cache, binary, temp caches,
# traces) stays under .bench_build/ in the checkout. "--trace 0" and
# "--trace 1" are accepted as off and on, the latter writing traces to
# .bench_build/trace.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/platform ]; then
	echo "bench: $root is not a full checkout (go.mod or internal/ missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--trace | -trace)
		case "${2:-}" in
		0) ;;
		1) args+=(-trace "$out/trace") ;;
		*) args+=(-trace "${2:-}") ;;
		esac
		shift 2 || shift
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done

(cd bench && go build -trimpath -o "$out/bench" .)
exec "$out/bench" "${args[@]+"${args[@]}"}"
