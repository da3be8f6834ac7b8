#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload plan|churn|tablei --seed N --seconds S --trace 0|1
#
# Everything it builds or writes goes under .bench_build/ in the current
# directory (CARGO_TARGET_DIR names another directory when set). The last
# line of standard output is the JSON result. Outside a checkout of the
# repository the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# The toolchain's caches, temporary files and per-user state (telemetry
# counters under XDG_CONFIG_HOME) stay in the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -data "$out" "$@"
