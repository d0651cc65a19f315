#!/usr/bin/env bash
# The one command. Builds the harness (which builds cmd/oipa-gen and
# cmd/oipa-serve from the tree), runs it, and cleans up on every exit
# path.
#
#   bash benchmark/run.sh
#       the whole table at seed 1: every workload, 3 interleaved
#       repetitions, the traced pass and the layer replay; prints the
#       table and leaves benchmark/out/results.json and trace.json
#
#   bash benchmark/run.sh --workload cold_prepare --seed 1 --seconds 20 --trace 0
#       one run of one workload; the last line of standard output is the
#       JSON object BENCHMARK.json describes (--trace 1: the per-layer
#       metrics of the traced pass, and benchmark/out/trace.json)
#
#   bash benchmark/run.sh -compare a.json b.json
#       verdict per (workload, end-to-end metric); exit 1 on a regression
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$here/.build"
mkdir -p "$build/bin" "$build/tmp"

# Whatever the toolchain writes stays inside the checkout, and nothing is
# fetched: the benchmark has no dependency outside this repository.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root" && go build -o "$build/bin/benchmark" ./benchmark)

pid=
cleanup() {
	# The harness stops its server child and removes its temp graph when
	# it is signalled; wait for that, then remove what a kill left behind.
	if [ -n "$pid" ]; then
		if kill -0 "$pid" 2>/dev/null; then
			kill -TERM "$pid" 2>/dev/null || true
			wait "$pid" 2>/dev/null || true
		fi
		rm -f "$build/graph-$pid.bin"
	fi
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

"$build/bin/benchmark" -root "$root" "$@" &
pid=$!
wait "$pid"
