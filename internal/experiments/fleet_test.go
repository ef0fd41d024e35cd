package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFleetRunsEveryCellOnce checks the work-stealing loop covers [0, n)
// exactly once at every worker count.
func TestFleetRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		hits := make([]int32, n)
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		Fleet{Workers: workers}.Run(n, func(i int) {
			<-mu
			hits[i]++
			mu <- struct{}{}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestFleetDeterminismFig3 is the tentpole's acceptance check: the parallel
// fleet must reproduce the sequential reference bit for bit.
func TestFleetDeterminismFig3(t *testing.T) {
	seq := RunFig3On(Sequential, DefaultSeed)
	par := RunFig3On(Fleet{Workers: 8}, DefaultSeed)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig3 parallel results diverge from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFleetDeterminismTable1 covers the closed-loop chat-session path,
// whose per-cell RNGs and history state are the most state-heavy.
func TestFleetDeterminismTable1(t *testing.T) {
	seq := RunTable1On(Sequential, DefaultSeed)
	par := RunTable1On(Fleet{Workers: 8}, DefaultSeed)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Table1 parallel results diverge from sequential")
	}
}

// TestFleetDeterminismReport renders the full report on the sequential
// reference fleet; the text output (what first-bench prints) must be the
// golden the parallel fleet is held to, byte for byte. It renders experiment
// by experiment, which also pins "all" as the table in order minus livefed.
func TestFleetDeterminismReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var seq bytes.Buffer
	for _, e := range experimentTable {
		if e.name == "livefed" {
			continue
		}
		if err := ReportOn(&seq, e.name, DefaultSeed, Sequential); err != nil {
			t.Fatal(err)
		}
	}
	checkGoldenReport(t, "Fleet{Workers: 1}, one experiment at a time", seq.Bytes())
}

// TestFleetPanicPropagates checks a cell panic surfaces on the caller's
// goroutine (like the sequential path) instead of crashing the process.
func TestFleetPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			Fleet{Workers: workers}.Run(8, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
			t.Errorf("workers=%d: Run returned without panicking", workers)
		}()
	}
}
