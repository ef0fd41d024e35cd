package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestFleetDeterminismReport drives the full rendered report both ways; the
// text output (what first-bench prints) must be byte-identical.
func TestFleetDeterminismReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var seq, par bytes.Buffer
	if err := ReportOn(&seq, "all", DefaultSeed, Sequential); err != nil {
		t.Fatal(err)
	}
	if err := ReportOn(&par, "all", DefaultSeed, Parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Error("rendered report differs between sequential and parallel fleets")
	}
}

func TestNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	if got, want := NextBenchPath(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Errorf("empty dir: %s, want %s", got, want)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := NextBenchPath(dir), filepath.Join(dir, "BENCH_2.json"); got != want {
		t.Errorf("after BENCH_1: %s, want %s", got, want)
	}
}

// TestBenchRecordRoundTrip validates the machine-readable perf record's
// encoding: what WriteBench puts on disk reads back as the record it was
// given. Regenerating the suite to fill a real record is `make bench`'s job.
func TestBenchRecordRoundTrip(t *testing.T) {
	rec := BenchRecord{
		Schema: BenchSchema, UnixTime: 1760486400, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		MaxProcs: 2, Seed: DefaultSeed, Workers: 4, WallMS: 12.5,
		Experiments: map[string]BenchExperiment{
			"fig3":  {WallMS: 7.25, Metrics: map[string]float64{"first_70b_tok_s": 1677.5, "direct_8b_req_s": 0}},
			"storm": {WallMS: 5.25, Metrics: map[string]float64{"shards16_p50_us": 29}},
		},
		Micro: map[string]MicroBench{"kernel_event": {NsPerOp: 10.6, AllocsPerOp: 0, BytesPerOp: 0}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := WriteBench(rec, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written record is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, rec)
	}
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
