#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload, printed as
# BENCH.md rows and a quartile table.
#
#   scripts/bench-pairs.sh PARENT WORKLOAD "SEEDS" [SECONDS]
#   make bench-pairs PARENT=<rev> WORKLOAD=<name> SEEDS="1 2 3" [RUN_SECONDS=20]
#
# The parent revision is exported with git archive into a temporary
# directory, so nothing is registered in or left behind in the checkout;
# the change is the working tree as it stands. Each side builds and runs
# its own copy of `bash benchmark/run.sh --workload W --seed N --seconds S
# --trace 0` — one run per seed per side, a fresh server each. Pair n runs
# the parent first when n is odd and the change first when n is even. The
# runs' output stays in the directory printed on standard error. The
# script stops with an error, naming the run, when benchmark/run.sh exits
# non-zero or its last line is not a result, and when an oipa-serve or
# harness process that was not running before a run is still running
# after it.
#
# Output (markdown): one row per seed, each side's cell being
# throughput_rps | req_p50_ms | cpu_ms_per_req | rss_peak_mb | setup_s;
# then per metric q1 / median / q3 of each side (linear interpolation,
# as benchmark/ computes them) and the ratio of the medians; then how
# many pairs the change won on throughput and every run's oracle verdict.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 PARENT WORKLOAD \"SEEDS\" [SECONDS]" >&2
	exit 2
fi
parent_rev=$1 workload=$2 seeds=$3 secs=${4:-20}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
# The parent tree holds a private build cache; the results are kept.
trap 'rm -rf "$work/parent"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"
echo "parent $(git -C "$root" rev-parse --short "$parent_rev"), results in $work" >&2

# pids lists the server and harness processes now running, one a line.
pids() {
	{
		pgrep -x oipa-serve || true
		pgrep -f '/benchmark/\.build/bin/benchmark( |$)' || true
	} | sort
}

# run stops the script when benchmark/run.sh fails, when its last line is
# not a result, or when a server or harness process it started outlives
# it: such a run measured nothing, and the next would share the box.
run() { # side seed
	local dir=$root out=$work/$1-$2 before status=0 left
	if [ "$1" = parent ]; then dir=$work/parent; fi
	before=$(pids)
	bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$2" --seconds "$secs" --trace 0 >"$out.out" || status=$?
	if [ "$status" -ne 0 ]; then
		echo "$1 seed $2: benchmark/run.sh exited $status; its output is in $out.out" >&2
		exit 1
	fi
	left=$(comm -13 <(echo "$before") <(pids))
	if [ -n "$left" ]; then
		echo "$1 seed $2: still running after benchmark/run.sh exited:" >&2
		ps -o pid=,args= -p "$(echo $left | tr ' ' ,)" >&2 || true
		exit 1
	fi
	tail -n 1 "$out.out" >"$out.json"
	if ! jq -e '.metrics' "$out.json" >/dev/null 2>&1; then
		echo "$1 seed $2: the last line of $out.out is not a result" >&2
		exit 1
	fi
	echo "$1 seed $2: $(cat "$out.json")" >&2
}

n=0
for seed in $seeds; do
	n=$((n + 1))
	if [ $((n % 2)) -eq 1 ]; then
		first=parent
		run parent "$seed"
		run change "$seed"
	else
		first=change
		run change "$seed"
		run parent "$seed"
	fi
	for side in parent change; do
		jq -r --arg side "$side" --arg seed "$seed" --arg first "$first" \
			'[$side, $seed, $first, .correct, .failed] + ([.metrics | (.throughput_rps, .req_p50_ms,
			  .cpu_ms_per_req, .rss_peak_mb, .setup_s)] | map(.value)) | @tsv' "$work/$side-$seed.json"
	done
done >"$work/runs.tsv"

# Rows: side seed first correct failed tp p50 cpu rss setup.
cell='{ printf "%.2f \\| %.2f \\| %.2f \\| %.0f \\| %.2f", $6, $7, $8, $9, $10 }'
echo "| workload | seed | first | parent | change |"
echo "|---|---|---|---|---|"
for seed in $seeds; do
	p=$(awk -F'\t' -v s="$seed" '$1 == "parent" && $2 == s' "$work/runs.tsv")
	c=$(awk -F'\t' -v s="$seed" '$1 == "change" && $2 == s' "$work/runs.tsv")
	echo "| $workload | $seed | $(echo "$p" | cut -f3) | $(echo "$p" | awk -F'\t' "$cell") | $(echo "$c" | awk -F'\t' "$cell") |"
done
echo

# quartiles SIDE COLUMN: "q1 / median / q3" of one side's column.
quartiles() {
	awk -F'\t' -v s="$1" -v c="$2" '$1 == s { print $c }' "$work/runs.tsv" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   pos, lo, hi) {
			pos = p * (NR - 1) + 1; lo = int(pos); hi = (lo < pos) ? lo + 1 : lo
			return v[lo] + (v[hi] - v[lo]) * (pos - lo)
		}
		END { printf "%.2f / %.2f / %.2f\n", q(0.25), q(0.5), q(0.75) }'
}
echo "$workload, $n pairs, q1 / median / q3:"
echo
echo "| metric | parent | change | change ÷ parent (medians) |"
echo "|---|---|---|---|"
col=6
for metric in throughput_rps req_p50_ms cpu_ms_per_req rss_peak_mb setup_s; do
	pq=$(quartiles parent $col)
	cq=$(quartiles change $col)
	ratio=$(echo "$pq $cq" | awk '{ printf "%.2f", $8 / $3 }') # the two medians
	echo "| $metric | $pq | $cq | $ratio |"
	col=$((col + 1))
done
echo
awk -F'\t' '
	$1 == "parent" { tp[$2] = $6 }
	$1 == "change" { tc[$2] = $6 }
	$4 != "true" { wrong++ }
	{ failed += $5; runs++ }
	END {
		for (s in tc) { pairs++; if (tc[s] > tp[s]) won++ }
		printf "throughput: the change ahead in %d of %d pairs; %d of %d runs correct, %d failed requests\n",
			won, pairs, runs - wrong, runs, failed
	}' "$work/runs.tsv"
