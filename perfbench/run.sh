#!/usr/bin/env bash
# run.sh builds the serving benchmark and its host process from the
# checkout's sources, then runs one workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload replay|ingest|durable --seed N --seconds S --trace 0|1
#
# Every build and run artefact stays under .bench_build/ in the current
# directory. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
export GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" ./bench && go build -o "$out/bin/perfhost" ./host) >&2
exec "$out/bin/perfbench" -host "$out/bin/perfhost" -work "$out/run" "$@"
