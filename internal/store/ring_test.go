package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// slidingLog is the request window as it was before it became a ring: a
// slice that drops its oldest row with logs[1:] once it holds more than
// maxLogs, rolling the row up into the counters. It is the oracle the ring
// must match after every call.
type slidingLog struct {
	maxLogs       int
	nextLog       int64
	logs          []RequestLog
	users         map[string]bool
	rolledReqs    int64
	rolledTokens  int64
	rolledByModel map[string]int64
	rolledByKind  map[string]int64
}

func newSlidingLog(maxLogs int) *slidingLog {
	return &slidingLog{maxLogs: maxLogs, users: map[string]bool{}, rolledByModel: map[string]int64{}, rolledByKind: map[string]int64{}}
}

func (o *slidingLog) LogRequest(r RequestLog) {
	o.nextLog++
	r.ID = o.nextLog
	o.logs = append(o.logs, r)
	if len(o.logs) > o.maxLogs {
		drop := o.logs[0]
		o.logs = o.logs[1:]
		o.rolledReqs++
		o.rolledTokens += int64(drop.OutputTok)
		o.rolledByModel[drop.Model]++
		o.rolledByKind[string(drop.Kind)]++
	}
	o.users[r.User] = true
}

func (o *slidingLog) RecentRequests(n int) []RequestLog {
	if n <= 0 || n > len(o.logs) {
		n = len(o.logs)
	}
	out := make([]RequestLog, n)
	for i := 0; i < n; i++ {
		out[i] = o.logs[len(o.logs)-1-i]
	}
	return out
}

func (o *slidingLog) Totals() Totals {
	t := Totals{
		Requests:     o.rolledReqs + int64(len(o.logs)),
		OutputTokens: o.rolledTokens,
		Users:        len(o.users),
		ByModel:      make(map[string]int64),
		ByKind:       make(map[string]int64),
	}
	for m, n := range o.rolledByModel {
		t.ByModel[m] = n
	}
	for k, n := range o.rolledByKind {
		t.ByKind[k] = n
	}
	for _, r := range o.logs {
		t.OutputTokens += int64(r.OutputTok)
		t.ByModel[r.Model]++
		t.ByKind[string(r.Kind)]++
	}
	return t
}

// requestsJSONL is the requests.jsonl Save writes for the oracle's window.
func (o *slidingLog) requestsJSONL(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range o.logs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// randomRow draws a row from a few users, models and kinds.
func randomRow(rng *sim.RNG, i int) RequestLog {
	kinds := []RequestKind{KindChat, KindCompletion, KindEmbedding, KindBatch}
	return RequestLog{
		User:      fmt.Sprintf("u%d", rng.Intn(5)),
		Model:     fmt.Sprintf("m%d", rng.Intn(4)),
		Endpoint:  "ep",
		Cluster:   "c",
		Kind:      kinds[rng.Intn(len(kinds))],
		PromptTok: rng.Intn(100),
		OutputTok: rng.Intn(500),
		Latency:   time.Duration(rng.Intn(1e6)),
		Status:    "ok",
		CreatedAt: ts(i),
	}
}

// savedRequests returns the requests.jsonl s.Save writes into dir.
func savedRequests(t *testing.T, s *Store, dir string) []byte {
	t.Helper()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRequestRingMatchesSlidingSlice logs random rows into the ring and the
// sliding-slice oracle side by side: after every call, Totals, every
// RecentRequests(n) and Save's requests.jsonl bytes are the oracle's, and
// the ring's array never holds more than maxLogs rows.
func TestRequestRingMatchesSlidingSlice(t *testing.T) {
	for _, maxLogs := range []int{1, 2, 7, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("max%d/seed%d", maxLogs, seed), func(t *testing.T) {
				rng := sim.NewRNG(seed)
				s, o := New(maxLogs), newSlidingLog(maxLogs)
				dir := t.TempDir()
				for i := 0; i < 2*maxLogs+40; i++ {
					r := randomRow(rng, i)
					s.LogRequest(r)
					o.LogRequest(r)
					if cap(s.logs) > maxLogs {
						t.Fatalf("after %d rows: the ring's array holds %d rows, max %d", i+1, cap(s.logs), maxLogs)
					}
					if got, want := s.Totals(), o.Totals(); !reflect.DeepEqual(got, want) {
						t.Fatalf("after %d rows: Totals %+v, want %+v", i+1, got, want)
					}
					for n := -1; n <= len(o.logs)+1; n++ {
						if got, want := s.RecentRequests(n), o.RecentRequests(n); !reflect.DeepEqual(got, want) {
							t.Fatalf("after %d rows: RecentRequests(%d) = %v, want %v", i+1, n, got, want)
						}
					}
					if got, want := savedRequests(t, s, dir), o.requestsJSONL(t); !bytes.Equal(got, want) {
						t.Fatalf("after %d rows: requests.jsonl\n%s\nwant\n%s", i+1, got, want)
					}
				}
			})
		}
	}
}

// A window saved after it wrapped loads back oldest first: the loaded
// store saves the same bytes, and the rows both stores log next take the
// same IDs and leave the same window.
func TestRequestRingSaveLoadAcrossWrap(t *testing.T) {
	rng := sim.NewRNG(11)
	s := New(7)
	for i := 0; i < 23; i++ {
		s.LogRequest(randomRow(rng, i))
	}
	if s.head == 0 {
		t.Fatal("the window did not wrap")
	}
	dir := t.TempDir()
	saved := savedRequests(t, s, dir)
	loaded := New(7)
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	if got := savedRequests(t, loaded, t.TempDir()); !bytes.Equal(got, saved) {
		t.Fatalf("saved again after Load:\n%s\nwant\n%s", got, saved)
	}
	for i := 23; i < 33; i++ {
		r := randomRow(rng, i)
		if a, b := s.LogRequest(r), loaded.LogRequest(r); a != b {
			t.Fatalf("row %d: IDs %d and %d", i, a, b)
		}
		if got, want := loaded.RecentRequests(0), s.RecentRequests(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: loaded window %v, want %v", i, got, want)
		}
	}
}

// Loading more rows than the window holds keeps the newest maxLogs and
// rolls up the rest: Totals equal those of the store that saved them and
// of a store of the same window that logged them, and the rows kept are
// the newest.
func TestLoadBeyondWindowRollsUp(t *testing.T) {
	rng := sim.NewRNG(5)
	wide, logged := New(1000), New(7)
	for i := 0; i < 40; i++ {
		r := randomRow(rng, i)
		wide.LogRequest(r)
		logged.LogRequest(r)
	}
	dir := t.TempDir()
	if err := wide.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := New(7)
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	if cap(loaded.logs) > 7 {
		t.Errorf("the loaded window's array holds %d rows, max 7", cap(loaded.logs))
	}
	if got, want := loaded.RecentRequests(0), wide.RecentRequests(7); !reflect.DeepEqual(got, want) {
		t.Errorf("kept %v, want the newest 7 %v", got, want)
	}
	got, want := loaded.Totals(), logged.Totals()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Totals %+v, want the logging store's %+v", got, want)
	}
	all := wide.Totals()
	if got.Requests != all.Requests || got.OutputTokens != all.OutputTokens || got.Users != all.Users ||
		!reflect.DeepEqual(got.ByModel, all.ByModel) || !reflect.DeepEqual(got.ByKind, all.ByKind) {
		t.Errorf("Totals %+v, want the saving store's counters %+v", got, all)
	}
	if id := loaded.LogRequest(randomRow(rng, 40)); id != 41 {
		t.Errorf("next ID %d, want 41", id)
	}
}

// Once the window is full a row overwrites the oldest in place: logging it
// allocates nothing.
func TestLogRequestZeroAllocOnFullRing(t *testing.T) {
	s := New(7)
	row := RequestLog{User: "alice", Model: "m1", Kind: KindChat, OutputTok: 16, Status: "ok", CreatedAt: ts(1)}
	for range 7 {
		s.LogRequest(row)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.LogRequest(row) }); allocs != 0 {
		t.Errorf("LogRequest on a full window: %.1f allocs, want 0", allocs)
	}
}
