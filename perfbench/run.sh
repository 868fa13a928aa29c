#!/usr/bin/env bash
# Builds perfbench from source and runs it; all arguments pass through:
#
#   bash perfbench/run.sh --workload sim-dht --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# stores a run writes and the traced run's spans and profiles all go
# under .bench_build in that directory; nothing is fetched.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/home"

export HOME="$out/home"
export XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --workdir "$out/perfbench" "$@"
