#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload emu-static --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under $CARGO_TARGET_DIR, .bench_build by default.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off \
	TMPDIR=$out/tmp HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
