#!/usr/bin/env bash
# Builds the repository benchmark and the acsel-bench reference binary
# from the source of the checkout it is run in, then runs the benchmark.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Binaries, the Go build cache and the
# trace files all live under .bench_build/ in that root; nothing is read
# or written outside it, and no module is downloaded.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (module sources not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its env file and telemetry counters under the
# user config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -C "$root/perfbench" -o "$out/bin/perfbench" .
go build -o "$out/bin/acsel-bench" ./cmd/acsel-bench

exec "$out/bin/perfbench" --root "$root" --acsel-bench "$out/bin/acsel-bench" "$@"
