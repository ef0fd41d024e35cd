package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// updateGolden rewrites goldenReport and goldenRows from this tree's rows.
// Only a change that means to move a reported number passes it, and the
// goldens' diff is then that change's review surface.
var updateGolden = flag.Bool("update", false, "rewrite testdata/report_all.golden and testdata/report_all.rows")

// goldenReport is ReportOn("all", DefaultSeed) as the previous commit
// rendered it.
const goldenReport = "testdata/report_all.golden"

// goldenRows pins the same rows at full precision, where the report rounds:
// one line per family, its name and the SHA-256 of fmt.Sprintf("%v", rows).
const goldenRows = "testdata/report_all.rows"

// familyRun is one family's rows on the default fleet, on the sequential
// reference and on the 4-ary heap queue, and the arena pool just before and
// just after the sequential pass.
type familyRun struct {
	def, seq, heap any
	pool           [2]map[*desmodel.Arena]bool
}

var (
	familyMu   sync.Mutex
	familyRuns = map[string]*familyRun{}
)

// runFamily computes the rows of the inAll family name once per test
// binary. The sequential pass runs on an arena the default pass left in the
// pool, so no new one may appear.
func runFamily(t *testing.T, name string) *familyRun {
	familyMu.Lock()
	defer familyMu.Unlock()
	if r := familyRuns[name]; r != nil {
		return r
	}
	for _, e := range experimentTable {
		if e.name == name && e.inAll {
			r := &familyRun{def: e.rows(Parallel, DefaultSeed)}
			r.pool[0] = pooledArenas()
			r.seq = e.rows(Sequential, DefaultSeed)
			r.pool[1] = pooledArenas()
			r.heap = e.rows(Fleet{Queue: sim.QueueHeap}, DefaultSeed)
			familyRuns[name] = r
			return r
		}
	}
	t.Fatalf("%q is not a family ReportOn(\"all\") renders", name)
	return nil
}

// checkFamily holds the family's rows equal, field for field, across worker
// counts and kernel queues, checks the sequential pass ran on pooled arenas,
// and runs the family's gate on the rows.
func checkFamily(t *testing.T, name string) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	gate := familyGates[name]
	if gate == nil {
		t.Fatalf("family %q has no gate in familyGates", name)
	}
	r := runFamily(t, name)
	if !reflect.DeepEqual(r.def, r.seq) {
		t.Errorf("rows differ between the default fleet and Fleet{Workers: 1}:\ndefault:    %+v\nsequential: %+v", r.def, r.seq)
	}
	if !reflect.DeepEqual(r.def, r.heap) {
		t.Errorf("rows differ between the default kernel queue and sim.QueueHeap:\ndefault: %+v\nheap:    %+v", r.def, r.heap)
	}
	if len(r.pool[0]) == 0 || !reflect.DeepEqual(r.pool[0], r.pool[1]) {
		t.Errorf("the sequential pass changed the arena pool from %d to %d: it did not run on one the default fleet kept",
			len(r.pool[0]), len(r.pool[1]))
	}
	gate(t, r.def)
}

// TestFamilies is the suite over the report's families: each family "all"
// renders is checked by checkFamily, then their default-fleet rows are
// rendered in table order and compared byte for byte with the golden, and
// pinned at full precision against goldenRows. A family without a gate, or a
// gate without a family, fails it.
func TestFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	inAll := map[string]bool{}
	for _, e := range experimentTable {
		if e.inAll {
			inAll[e.name] = true
			t.Run(e.name, func(t *testing.T) { checkFamily(t, e.name) })
		}
	}
	for name := range familyGates {
		if !inAll[name] {
			t.Errorf("familyGates has a gate for %q, which is not a family ReportOn(\"all\") renders", name)
		}
	}
	t.Run("golden", func(t *testing.T) {
		var got bytes.Buffer
		for _, e := range experimentTable {
			if e.inAll {
				e.render(&got, runFamily(t, e.name).def)
			}
		}
		checkGolden(t, goldenReport, got.Bytes())
	})
	t.Run("rows", func(t *testing.T) {
		var got bytes.Buffer
		for _, e := range experimentTable {
			if e.inAll {
				rows := fmt.Sprintf("%v", runFamily(t, e.name).def)
				if strings.Contains(rows, "0x") {
					t.Errorf("%s's rows print a pointer address, which no pin can hold:\n%s", e.name, rows)
				}
				fmt.Fprintf(&got, "%s %x\n", e.name, sha256.Sum256([]byte(rows)))
			}
		}
		checkGolden(t, goldenRows, got.Bytes())
	})
}

// checkGolden compares got with the file at path byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if *updateGolden {
		want, err = got, os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the rows differ from %s; if the change is meant, regenerate with "+
			"`go test ./internal/experiments -run TestFamilies -update` and review the diff\ngot:\n%s", path, got)
	}
}

// The tests TestFamilies replaced keep their names, each checking the family
// it used to, so -run selectors written against them select the same check.
func TestQueueDifferentialFig3(t *testing.T)                   { checkFamily(t, "fig3") }
func TestQueueDifferentialTable1(t *testing.T)                 { checkFamily(t, "table1") }
func TestQueueDifferentialStorm(t *testing.T)                  { checkFamily(t, "storm") }
func TestQueueDifferentialReport(t *testing.T)                 { TestFamilies(t) }
func TestFleetDeterminismFig3(t *testing.T)                    { checkFamily(t, "fig3") }
func TestFleetDeterminismTable1(t *testing.T)                  { checkFamily(t, "table1") }
func TestFleetDeterminismStorm(t *testing.T)                   { checkFamily(t, "storm") }
func TestFleetDeterminismReport(t *testing.T)                  { TestFamilies(t) }
func TestFig3Shape(t *testing.T)                               { checkFamily(t, "fig3") }
func TestFig4Shape(t *testing.T)                               { checkFamily(t, "fig4") }
func TestFig5Shape(t *testing.T)                               { checkFamily(t, "fig5") }
func TestTable1Shape(t *testing.T)                             { checkFamily(t, "table1") }
func TestBatchShape(t *testing.T)                              { checkFamily(t, "batch") }
func TestOpt1Shape(t *testing.T)                               { checkFamily(t, "opt1") }
func TestOpt2Shape(t *testing.T)                               { checkFamily(t, "opt2") }
func TestOpt3Shape(t *testing.T)                               { checkFamily(t, "opt3") }
func TestStormShardedAbsorbsWhatSingleLockCannot(t *testing.T) { checkFamily(t, "storm") }
func TestStormArmsFaceIdenticalArrivals(t *testing.T)          { checkFamily(t, "storm") }
func TestFederateDifferentialWorkers(t *testing.T)             { checkFamily(t, "federate") }
func TestFederateDifferentialQueue(t *testing.T)               { checkFamily(t, "federate") }
func TestFederateChurnShort(t *testing.T)                      { checkFamily(t, "federate") }
func TestAutoScaleDifferentialWorkers(t *testing.T)            { checkFamily(t, "autoscale") }
func TestAutoScaleDifferentialQueue(t *testing.T)              { checkFamily(t, "autoscale") }
func TestAutoScaleElasticityShort(t *testing.T)                { checkFamily(t, "autoscale") }
