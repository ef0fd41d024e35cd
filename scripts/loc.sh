#!/usr/bin/env bash
# The count behind `make loc` and every size bound ROADMAP.md quotes: Go
# lines (`wc -l`, comments and blanks included) per internal/* package, test
# files apart and lint fixtures (testdata) left out, with the column sums
# last. Author and reviewer run the same script, so they read the same number.
#
#   scripts/loc.sh [root-of-a-checkout]
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
count() { # count <dir> <-not|""> : lines of the package's (non-)test Go files
	find "$1" -maxdepth 1 -name '*.go' $2 -name '*_test.go' -print0 | xargs -0 -r cat | wc -l
}
printf '%-28s %9s %9s\n' package non-test test
sum=0
sumt=0
for d in $(find internal -type d -not -path '*/testdata*' | sort); do
	[ -n "$(find "$d" -maxdepth 1 -name '*.go' -print -quit)" ] || continue
	n=$(count "$d" -not)
	t=$(count "$d" "")
	printf '%-28s %9d %9d\n' "$d" "$n" "$t"
	sum=$((sum + n))
	sumt=$((sumt + t))
done
printf '%-28s %9d %9d\n' internal/... "$sum" "$sumt"
