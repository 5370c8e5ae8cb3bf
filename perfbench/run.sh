#!/usr/bin/env bash
# Builds the packetgame benchmark from the source tree it sits in and runs it
# with the given arguments (--workload, --seed, --seconds, --trace). Every
# build artifact, cache and output stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) at the root of the tree.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
# The go command's settings file and telemetry counters live under the
# user's config directory; point it into the build directory too.
export XDG_CONFIG_HOME=$build/config GOPATH=$build/gopath
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
rev=
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" --rev "$rev" "$@"
