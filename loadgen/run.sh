#!/usr/bin/env bash
# Builds the load driver from this checkout's sources and runs it.
#
#   bash loadgen/run.sh --workload ycsb-mvcc --seed 1 --seconds 10 --trace 0
#   bash loadgen/run.sh --workload all --seed 1 --seconds 10
#
# Build cache, binary, data dirs and span files all live under .bench_build
# at the checkout root. "--workload all" runs every workload in its own
# process and exits nonzero if any run fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# Only the standard library and this repository are needed: no network,
# no user-level go env file, no toolchain download.
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/loadgen" .)

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | -workload) workload="$2"; shift 2 ;;
	--workload=* | -workload=*) workload="${1#*=}"; shift ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" != "all" ]; then
	exec "$build/loadgen" -work "$build/loadgen-work" -workload "$workload" "${args[@]+"${args[@]}"}"
fi
status=0
for w in ycsb-mvcc ycsb-disk tpcc-lock; do
	"$build/loadgen" -work "$build/loadgen-work" -workload "$w" "${args[@]+"${args[@]}"}" || status=1
done
exit $status
