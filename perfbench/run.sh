#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload recon --seed 1 --seconds 20 --trace 0
#
# Every build artefact, Go cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so nothing outside the
# checkout is read or written apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
