// Fixture for the hotpath analyzer's reverse, forward and pinned-by-name
// checks. The pins live in hotpath_test.go.
package hotfixture

// Pinned is measured directly by the 0-alloc pin; annotated, and the test
// its note names exists, so no finding.
//
//first:hotpath pinned by TestZeroAlloc (hotpath_test.go)
func Pinned() int {
	return helper() + 1
}

// helper is not pinned directly but is reachable from Pinned through the
// static call graph, so its annotation is covered. Its note names two tests;
// each is looked up, and the second does not exist.
//
//first:hotpath pinned by TestZeroAlloc (hotpath_test.go) and TestZeroAllocDeep
func helper() int { // want `says it is pinned by TestZeroAllocDeep, but`
	return 2
}

// Renamed is pinned, but its note still carries the test's old name — the
// test was renamed and the comment left behind.
//
//first:hotpath pinned by TestZeroAllocOld (hotpath_test.go)
func Renamed() int { // want `//first:hotpath on Renamed says it is pinned by TestZeroAllocOld, but the package's test files declare no func TestZeroAllocOld`
	return 7
}

// Prose names a suite, not a test function: nothing to look up.
//
//first:hotpath pinned by the zero-alloc suite (hotpath_test.go)
func Prose() int {
	return 8
}

// Unpinned carries the annotation but nothing pins it.
//
//first:hotpath
func Unpinned() int { // want `Unpinned is annotated //first:hotpath but no 0-alloc AllocsPerRun pin reaches it`
	return 3
}

// Missing is pinned 0-alloc by the test but lacks the annotation —
// removing //first:hotpath from a pinned function must be a finding.
func Missing() int { // want `Missing is pinned 0-alloc by an AllocsPerRun test but lacks //first:hotpath`
	return 4
}

// Loose is measured with a nonzero budget (> 1): budgeted pins bind
// nothing, so no annotation is required.
func Loose() *int {
	x := 5
	return &x
}
