package experiments

// Differential determinism suite: the default kernel queue (sim.QueueCalendar,
// the sorted run in front of the heap) must reproduce the 4-ary heap
// reference bit for bit on the real experiment workloads —
// same structs, same floats, same rendered report bytes. This is the
// tentpole acceptance gate for swapping the kernel's event queue.

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"

	"github.com/argonne-first/first/internal/sim"
)

var heapRef = Fleet{Workers: 1, Queue: sim.QueueHeap}

// updateGolden rewrites testdata/report_all.golden from this tree's report.
// Only a change that means to move a reported number passes it, and the
// golden's diff is then that change's review surface.
var updateGolden = flag.Bool("update", false, "rewrite testdata/report_all.golden")

func TestQueueDifferentialFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cal := RunFig3On(Sequential, DefaultSeed)
	heap := RunFig3On(heapRef, DefaultSeed)
	if !reflect.DeepEqual(cal, heap) {
		t.Errorf("Fig3 diverges between calendar and heap kernels:\ncal:  %+v\nheap: %+v", cal, heap)
	}
}

func TestQueueDifferentialTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cal := RunTable1On(Sequential, DefaultSeed)
	heap := RunTable1On(heapRef, DefaultSeed)
	if !reflect.DeepEqual(cal, heap) {
		t.Errorf("Table1 diverges between calendar and heap kernels")
	}
}

func TestQueueDifferentialStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cal := RunStormOn(Sequential, DefaultSeed)
	heap := RunStormOn(heapRef, DefaultSeed)
	if !reflect.DeepEqual(cal, heap) {
		t.Errorf("Storm diverges between calendar and heap kernels:\ncal:  %+v\nheap: %+v", cal, heap)
	}
}

// goldenReport is the committed rendering of ReportOn("all", DefaultSeed): it
// pins every reported number across commits and across the three ways of
// producing it, each of which renders once and compares with it rather than
// with another render.
const goldenReport = "testdata/report_all.golden"

// checkGoldenReport fails when got, the report as variant rendered it, is
// not the golden byte for byte.
func checkGoldenReport(t *testing.T, variant string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the report rendered by %s differs from %s (the previous commit's numbers); if the change is meant, "+
			"regenerate with `go test ./internal/experiments -run TestQueueDifferentialReport -update` and review the diff\ngot:\n%s",
			variant, goldenReport, got)
	}
}

// TestQueueDifferentialReport renders the full paper report on both kernels,
// each fanned out over the default fleet (so arena recycling and worker
// scheduling are exercised too): either must be the committed golden byte
// for byte — and so each other. The calendar render is the one -update
// writes.
func TestQueueDifferentialReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var cal, heap bytes.Buffer
	if err := ReportOn(&cal, "all", DefaultSeed, Parallel); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenReport, cal.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkGoldenReport(t, "the default fleet (calendar kernel)", cal.Bytes())
	if err := ReportOn(&heap, "all", DefaultSeed, Fleet{Queue: sim.QueueHeap}); err != nil {
		t.Fatal(err)
	}
	checkGoldenReport(t, "Fleet{Queue: sim.QueueHeap}", heap.Bytes())
}
