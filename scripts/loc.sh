#!/usr/bin/env bash
# The count behind `make loc` and every size bound ROADMAP.md quotes: Go
# lines (`wc -l`, comments and blanks included) per internal/* package, test
# files apart and lint fixtures (testdata) left out, with the column sums
# last. Author and reviewer run the same script, so they read the same number.
#
#   scripts/loc.sh         this checkout's counts
#   scripts/loc.sh <rev>   the same beside <rev>'s counts (its internal/,
#                          extracted with git archive) and the change
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() { # count <dir> <-not|""> : lines of the package's (non-)test Go files
	find "$1" -maxdepth 1 -name '*.go' $2 -name '*_test.go' -print0 | xargs -0 -r cat | wc -l
}
rows() { # rows <root> : "<package> <non-test> <test>" per package under <root>/internal
	(cd "$1" && for d in $(find internal -type d -not -path '*/testdata*' | sort); do
		[ -n "$(find "$d" -maxdepth 1 -name '*.go' -print -quit)" ] || continue
		echo "$d $(count "$d" -not) $(count "$d" "")"
	done)
}
if [ $# -eq 0 ]; then
	rows . | awk 'BEGIN { printf "%-28s %9s %9s\n", "package", "non-test", "test" }
		{ printf "%-28s %9d %9d\n", $1, $2, $3; n += $2; t += $3 }
		END { printf "%-28s %9d %9d\n", "internal/...", n, t }'
	exit
fi
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$1" internal | tar -x -C "$base"
rows "$base" >"$base/rows"
# One line per package of either side (a package only the base has comes
# last, at zero), then the sums.
rows . | awk -v baserows="$base/rows" '
	function line(p, bn, n, bt, t) {
		printf "%-28s %9d %9d %+7d %9d %9d %+7d\n", p, bn, n, n - bn, bt, t, t - bt
	}
	BEGIN {
		while ((getline l < baserows) > 0) {
			split(l, f, " ")
			bn[f[1]] = f[2]; bt[f[1]] = f[3]; order[++k] = f[1]
			BN += f[2]; BT += f[3]
		}
		printf "%-28s %9s %9s %7s %9s %9s %7s\n", "package", "base", "non-test", "delta", "base", "test", "delta"
	}
	{ line($1, bn[$1], $2, bt[$1], $3); seen[$1] = 1; N += $2; T += $3 }
	END {
		for (i = 1; i <= k; i++) if (!(order[i] in seen)) line(order[i], bn[order[i]], 0, bt[order[i]], 0)
		line("internal/...", BN, N, BT, T)
	}'
