package hotfixture

import "testing"

func TestZeroAlloc(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		Pinned()
		Missing()
		Renamed()
		Prose()
		Binder()
	}); got != 0 {
		t.Fatalf("allocs: %v", got)
	}
}

func TestBudgeted(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		Loose()
	}); got > 1 {
		t.Fatalf("allocs: %v", got)
	}
}

// benchOnly lives in a test file: pins cover compiled code, so annotating
// a test helper is a finding.
//
//first:hotpath
func benchOnly() int { // want `//first:hotpath on benchOnly, which is not a compiled function of this package`
	return 6
}
