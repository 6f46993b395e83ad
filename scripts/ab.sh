#!/usr/bin/env bash
# ab.sh — the performance gate: perfbench on a base revision against the
# working tree, in alternating pairs inside one session.
#
#   scripts/ab.sh <base-rev>
#
# The base is checked out with `git worktree` under .bench_build/ab/ and
# removed on exit; each side builds perfbench from its own source through
# its own perfbench/run.sh. Only runs made in the same session compare
# like with like: a ratio measured in another session, or an absolute
# figure from another machine, drifts by more than the bounds.
#
# What is minimised: each end-to-end metric of BENCHMARK.json, in its
#   `better` direction. The base revision's BENCHMARK.json names the
#   metrics and their bounds, so a change cannot loosen its own gate.
# What must be reached: no metric whose head median is worse than the
#   base median by more than bound × base median; zero failed runs (a
#   run fails when it exits non-zero, when the last line of its stdout
#   is not JSON, or when it reports "correct": false); and no larger
#   share of failed operations (failed / attempted) on head than on base.
# Which knobs vary: the base revision (the argument), the seed (pair i
#   runs --seed i on both sides) and the run order (the side that runs
#   first alternates from pair to pair).
#
# Everything else is fixed here: 5 pairs of 10 s runs per workload, at
# --trace 0. A workload that the base's BENCHMARK.json does not list
# runs on head only, and is reported but not gated. The script prints
# one table and exits 1 on a regression or a failed run, 2 on bad usage.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=5
seconds=10

if [ $# -ne 1 ]; then
	echo "usage: scripts/ab.sh <base-rev>" >&2
	exit 2
fi
if ! base_rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
	echo "ab.sh: $1 is not a revision" >&2
	exit 2
fi

head_dir=$PWD
base_dir=$head_dir/.bench_build/ab/base
out=$head_dir/.bench_build/ab/out
cleanup() {
	git worktree remove --force "$base_dir" 2>/dev/null || true
	rm -rf "$head_dir/.bench_build/ab"
	git worktree prune
}
trap cleanup EXIT
cleanup # a run killed outright leaves its worktree behind
mkdir -p "$out"
git worktree add --detach --quiet "$base_dir" "$base_rev"

failed=0

# run SIDE DIR WORKLOAD SEED: one perfbench run. Its result line goes to
# $out/SIDE-WORKLOAD.jsonl; a failed run is reported and marks the gate.
run() {
	local side=$1 dir=$2 w=$3 seed=$4 status=0 last log=$out/$1-$3-$4.log
	(cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$out/stdout" 2>"$log" || status=$?
	last=$(tail -n 1 "$out/stdout")
	if jq -e 'type == "object"' <<<"$last" >/dev/null 2>&1; then
		printf '%s\n' "$last" >>"$out/$side-$w.jsonl"
	fi
	if [ "$status" -ne 0 ] || [ "$(jq -r '.correct' <<<"$last" 2>/dev/null)" != true ]; then
		echo "$w seed $seed $side: FAILED (exit $status); the end of its log:"
		tail -n 5 "$log" | sed 's/^/    /'
		failed=1
		return
	fi
	echo "$w seed $seed $side: ok"
}

# rows WORKLOAD GATED SPEC: one TSV row per end-to-end metric of SPEC
# (workload, metric, base median, head median, status), then one for
# the share of failed operations.
rows() {
	jq -rn --arg w "$1" --argjson gated "$2" --slurpfile spec "$3" \
		--slurpfile base "$out/base-$1.jsonl" --slurpfile head "$out/head-$1.jsonl" '
	def median: map(select(. != null)) | sort |
		if length == 0 then null
		elif length % 2 == 1 then .[(length - 1) / 2]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def share: (map(.attempted) | add // 0) as $n |
		if $n > 0 then (map(.failed) | add) / $n else 0 end;
	def status($worse): if ($gated | not) then "not gated"
		elif $worse == null then "MISSING"
		elif $worse then "REGRESSED" else "ok" end;
	($spec[0].end_to_end[] |
		.name as $m | .better as $better | .bound as $bound |
		($base | map(.metrics[$m].value) | median) as $b |
		($head | map(.metrics[$m].value) | median) as $h |
		[$w, $m, $b, $h, status(
			if $b == null or $h == null then null
			elif $better == "higher" then $h < $b - $bound * $b
			else $h > $b + $bound * $b end)]),
	(($base | share) as $b | ($head | share) as $h |
		[$w, "failed_share", $b, $h, status($h > $b)])
	| @tsv'
}

: >"$out/rows.tsv"
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	: >"$out/base-$w.jsonl"
	: >"$out/head-$w.jsonl"
	gated=$(jq --arg w "$w" 'any(.workloads[]; .name == $w)' "$base_dir/BENCHMARK.json" 2>/dev/null || echo false)
	spec=$base_dir/BENCHMARK.json
	[ "$gated" = true ] || spec=BENCHMARK.json
	for seed in $(seq 1 "$pairs"); do
		if [ "$gated" != true ]; then
			run head "$head_dir" "$w" "$seed"
		elif [ $((seed % 2)) -eq 1 ]; then
			run base "$base_dir" "$w" "$seed"
			run head "$head_dir" "$w" "$seed"
		else
			run head "$head_dir" "$w" "$seed"
			run base "$base_dir" "$w" "$seed"
		fi
	done
	rows "$w" "$gated" "$spec" >>"$out/rows.tsv"
done

echo
echo "base $(git rev-parse --short "$base_rev") against the working tree: medians of $pairs pairs, ${seconds} s runs"
status=0
awk -F'\t' '
function num(v) { return v == "" ? "-" : sprintf("%.4g", v) }
BEGIN { printf "%-14s %-15s %10s %10s %8s  %s\n", "workload", "metric", "base", "head", "delta", "status" }
{
	delta = ($3 != "" && $4 != "" && $3 != 0) ? sprintf("%+.1f%%", 100 * ($4 - $3) / $3) : "-"
	printf "%-14s %-15s %10s %10s %8s  %s\n", $1, $2, num($3), num($4), delta, $5
	if ($5 == "REGRESSED" || $5 == "MISSING") bad = 1
}
END { exit bad }' "$out/rows.tsv" || status=1
if [ "$failed" -ne 0 ]; then
	echo "at least one run failed"
	status=1
fi
if [ "$status" -eq 0 ]; then
	echo "perf gate OK"
else
	echo "perf gate FAILED"
fi
exit "$status"
