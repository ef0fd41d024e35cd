#!/usr/bin/env bash
# The choosing-metrics §8 protocol behind `make pairs`: alternating runs of
# BENCHMARK.json's command in a checkout of a base revision and in this one,
# one pair per seed, the side that goes first swapping every pair. The base
# is checked out as a temporary git worktree under .bench_build/, removed on
# exit; each run.sh builds from the checkout it sits in, so the base side
# runs the base's committed files and this side the working tree as it is.
# Prints every run, then, for each end-to-end metric
# (req_per_s, lat_p50_ms, allocs_per_req, setup_s), each side's median and
# quartiles and the change's median against the parent's, and the change's
# win count with §8's verdict on it, each in the direction BENCHMARK.json's
# `better` field gives the metric: the claim rule is met when at least ten
# pairs ran, the change won at least nine tenths of them (ties count for
# neither) and its median beats the parent's by more than the parent's
# quartile distance. The verdicts do not set the exit status. Exits 1 if a
# run fails, is not correct, or a pair's
# modelled-row digests differ (live workloads print none), or if the change's
# median of a metric is worse than the parent's by more than the bound
# BENCHMARK.json declares for it. The run length is the benchmark's own
# (BENCHMARK.json's run_seconds). The seeds are the caller's to choose and
# have no default: a claim is judged on seeds not used while writing the
# change, so every use spends its seeds — record them in CHANGES.md beside
# the result.
#
#   scripts/pairs.sh <base-revision> <workload> <seed> [seed ...]
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 <base-revision> <workload> <seed> [seed ...]" >&2
	exit 2
fi
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$change" rev-parse --verify --quiet "$1^{commit}")" || {
	echo "$0: $1 is not a revision of this repository" >&2
	exit 2
}
workload="$2"
shift 2
# Scratch, the base's worktree included, stays inside this checkout, beside
# run.sh's own build output.
tmp="$change/.bench_build/pairs.$$"
parent="$tmp/parent"
mkdir -p "$tmp"
cleanup() {
	git -C "$change" worktree remove --force "$parent" 2>/dev/null || true
	rm -rf "$tmp"
	git -C "$change" worktree prune
}
trap cleanup EXIT
git -C "$change" worktree add --quiet --detach "$parent" "$rev"

# The metrics one records, in its column order.
metrics="req_per_s lat_p50_ms allocs_per_req setup_s"

# one <side> <checkout> <seed>: run once, print the row, record
# "req_per_s lat_p50_ms allocs_per_req setup_s digest correct".
one() {
	local out="$tmp/out" status=0
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --trace 0) >"$out" || status=$?
	awk -v side="$1" -v seed="$3" -v rec="$tmp/$1.$3" -v status="$status" '
		$1 == "setup_s" { setup = $2 }
		$1 == "req_per_s" { rate = $2 }
		$1 == "lat_p50_ms" { p50 = $2 }
		$1 == "allocs_per_req" { allocs = $2 }
		/modelled-row digest/ { digest = $3 }
		/^\{"correct":true,/ { correct = "true" }
		END {
			if (digest == "") digest = "-"
			if (correct == "" || status != 0) correct = "FALSE"
			printf "%-6s seed %-9s req_per_s %12.1f  lat_p50_ms %9.6f  allocs_per_req %8.3f  setup_s %6.3f  correct %-5s digest %s\n",
				side, seed, rate, p50, allocs, setup, correct, digest
			print rate + 0, p50 + 0, allocs + 0, setup + 0, digest, correct > rec
		}' "$out"
}

echo "workload $workload, seeds $*, parent $rev"
i=0
bad=0
for seed in "$@"; do
	i=$((i + 1))
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$parent" "$seed"
		one change "$change" "$seed"
	else
		one change "$change" "$seed"
		one parent "$parent" "$seed"
	fi
	read -r _ _ _ _ pdigest pcorrect <"$tmp/parent.$seed"
	read -r _ _ _ _ cdigest ccorrect <"$tmp/change.$seed"
	if [ "$pdigest" != "$cdigest" ]; then
		echo "seed $seed: modelled-row digests differ: parent $pdigest, change $cdigest" >&2
		bad=1
	fi
	if [ "$pcorrect" != true ] || [ "$ccorrect" != true ]; then
		echo "seed $seed: a run failed or did not report correct: true" >&2
		bad=1
	fi
done

# stats <side> <column>: median and quartiles (linear interpolation) of one
# recorded column over the side's runs.
stats() {
	cat "$tmp/$1".* | awk -v c="$2" '{ print $c }' | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,    h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { print q(0.5), q(0.25), q(0.75) }'
}

# declared <metric>: "better bound" from BENCHMARK.json's end_to_end list,
# empty if the metric is not declared there.
declared() {
	awk -v m="$1" '
		function field(line, key,    s) {
			s = line
			if (!sub(".*\"" key "\": *", "", s)) return ""
			sub(/[,}].*/, "", s)
			gsub(/"/, "", s)
			return s
		}
		/"end_to_end"/ { on = 1; next }
		on && /^ *\]/ { exit }
		on && field($0, "name") == m { print field($0, "better"), field($0, "bound"); exit }' "$change/BENCHMARK.json"
}

col=0
for metric in $metrics; do
	col=$((col + 1))
	read -r pmed pq1 pq3 < <(stats parent "$col")
	read -r cmed cq1 cq3 < <(stats change "$col")
	read -r better bound < <(declared "$metric") || true
	# verdict: the change's median relative to the parent's (positive is
	# better), and whether it is worse by more than the declared bound.
	verdict="$(awk -v p="$pmed" -v c="$cmed" -v better="${better:-}" -v bound="${bound:-}" 'BEGIN {
		d = p == 0 ? 0 : (c - p) / p
		if (better == "lower") d = -d
		printf "gain %+.1f %%", 100 * d
		if (bound != "") printf " (bound %.0f %%)", 100 * bound
		if (bound != "" && -d > bound) printf " WORSE THAN THE BOUND"
	}')"
	printf "%-14s parent median %12.6g  quartiles %12.6g / %12.6g   change median %12.6g  quartiles %12.6g / %12.6g   %s\n" \
		"$metric" "$pmed" "$pq1" "$pq3" "$cmed" "$cq1" "$cq3" "$verdict"
	case "$verdict" in
	*WORSE*)
		echo "$metric: the change's median is worse than the parent's by more than BENCHMARK.json's bound" >&2
		bad=1
		;;
	esac
	# The pairs the change won on this metric, in its better direction: a
	# pair's two six-field records side by side, the change's first.
	wins=0
	for seed in "$@"; do
		if paste -d ' ' "$tmp/change.$seed" "$tmp/parent.$seed" | awk -v c="$col" -v k=6 -v better="${better:-higher}" '{
			a = $c; b = $(c + k)
			exit !(better == "lower" ? a < b : a > b)
		}'; then
			wins=$((wins + 1))
		fi
	done
	rule="$(awk -v w="$wins" -v n="$#" -v p="$pmed" -v q1="$pq1" -v q3="$pq3" -v c="$cmed" -v better="${better:-higher}" 'BEGIN {
		gain = better == "lower" ? p - c : c - p
		print (n >= 10 && 10 * w >= 9 * n && gain > q3 - q1) ? "met" : "not met"
	}')"
	printf "%-14s change wins %d of %d pairs; claim rule (>= 10 pairs, >= 9 in 10 won, median gain beyond the parent's quartile distance) %s\n" \
		"$metric" "$wins" "$#" "$rule"
done
exit $bad
