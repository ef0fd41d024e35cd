#!/usr/bin/env bash
# The choosing-metrics §8 protocol behind `make pairs`: alternating runs of
# BENCHMARK.json's command in a parent checkout and in this one, one pair per
# seed, the side that goes first swapping every pair. Each run.sh builds from
# the checkout it sits in. Prints every run, then each side's median and
# quartiles and the change's win count on req_per_s; exits 1 if a run fails,
# is not correct, or a pair's modelled-row digests differ (live workloads
# print none). The run length is the benchmark's own (BENCHMARK.json's
# run_seconds). The seeds are the caller's to choose and have no default: a
# claim is judged on seeds not used while writing the change, so every use
# spends its seeds — record them in CHANGES.md beside the result.
#
#   scripts/pairs.sh <parent-checkout> <workload> <seed> [seed ...]
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-checkout> <workload> <seed> [seed ...]" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="$2"
shift 2
# Scratch stays inside this checkout, beside run.sh's own build output.
tmp="$change/.bench_build/pairs.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

# one <side> <checkout> <seed>: run once, print the row, record "rate digest correct".
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
			print rate + 0, digest, correct > rec
		}' "$out"
}

echo "workload $workload, seeds $*, parent $parent"
i=0
bad=0
wins=0
for seed in "$@"; do
	i=$((i + 1))
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$parent" "$seed"
		one change "$change" "$seed"
	else
		one change "$change" "$seed"
		one parent "$parent" "$seed"
	fi
	read -r prate pdigest pcorrect <"$tmp/parent.$seed"
	read -r crate cdigest ccorrect <"$tmp/change.$seed"
	if awk -v a="$crate" -v b="$prate" 'BEGIN { exit !(a > b) }'; then
		wins=$((wins + 1))
	fi
	if [ "$pdigest" != "$cdigest" ]; then
		echo "seed $seed: modelled-row digests differ: parent $pdigest, change $cdigest" >&2
		bad=1
	fi
	if [ "$pcorrect" != true ] || [ "$ccorrect" != true ]; then
		echo "seed $seed: a run failed or did not report correct: true" >&2
		bad=1
	fi
done

# summary <side>: median and quartiles (linear interpolation) of req_per_s.
summary() {
	cat "$tmp/$1".* | sort -g | awk -v side="$1" '
		{ v[NR] = $1 }
		function q(p,    h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "%-6s req_per_s median %12.1f  quartiles %12.1f / %12.1f  (n = %d)\n", side, q(0.5), q(0.25), q(0.75), NR }'
}
summary parent
summary change
echo "change wins $wins of $# pairs on req_per_s"
exit $bad
