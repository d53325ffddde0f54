#!/usr/bin/env bash
# Entry point of the fhc benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload cold-upload --seed 1 --seconds 25 --trace 0
#
# It builds the fhcbench harness (bench/fhcbench, its own Go module) and
# hands every argument to it; the harness then builds fhc from the same
# tree. The Go build cache, module cache, temporary files and Go's own
# configuration directory all live under .bench_build in the current
# directory, so a run reads and writes nothing outside the checkout but
# the Go toolchain itself.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" \
  GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -buildvcs=false -o "$build/fhcbench" ./fhcbench
exec "$build/fhcbench" --root "$(pwd)" --work "$build" "$@"
