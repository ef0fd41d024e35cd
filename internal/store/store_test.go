package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func ts(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func TestLogRequestAndTotals(t *testing.T) {
	s := New(0)
	s.LogRequest(RequestLog{User: "alice", Model: "m1", Kind: KindChat, OutputTok: 100, CreatedAt: ts(1)})
	s.LogRequest(RequestLog{User: "alice", Model: "m1", Kind: KindChat, OutputTok: 50, CreatedAt: ts(2)})
	s.LogRequest(RequestLog{User: "bob", Model: "m2", Kind: KindEmbedding, CreatedAt: ts(3)})

	tot := s.Totals()
	if tot.Requests != 3 || tot.OutputTokens != 150 || tot.Users != 2 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.ByModel["m1"] != 2 || tot.ByModel["m2"] != 1 {
		t.Errorf("by model = %v", tot.ByModel)
	}
	if tot.ByKind["chat"] != 2 {
		t.Errorf("by kind = %v", tot.ByKind)
	}
}

func TestLogRollupBeyondWindow(t *testing.T) {
	s := New(10)
	for i := 0; i < 25; i++ {
		kind := KindChat
		if i%2 == 1 {
			kind = KindCompletion
		}
		s.LogRequest(RequestLog{User: "u", Model: "m", Kind: kind, OutputTok: 10, CreatedAt: ts(i)})
	}
	if got := len(s.RecentRequests(0)); got != 10 {
		t.Errorf("retained = %d, want 10", got)
	}
	tot := s.Totals()
	// Rolled-up rows must still count toward totals.
	if tot.Requests != 25 || tot.OutputTokens != 250 {
		t.Errorf("totals after rollup = %+v", tot)
	}
	if tot.ByModel["m"] != 25 {
		t.Errorf("by-model after rollup = %v", tot.ByModel)
	}
	if want := map[string]int64{"chat": 13, "completion": 12}; !reflect.DeepEqual(tot.ByKind, want) {
		t.Errorf("by-kind after rollup = %v, want %v", tot.ByKind, want)
	}

	// The rolled-up counters survive Save → Load, and loading again
	// replaces them rather than adding to them.
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := New(10)
	for range 2 {
		if err := loaded.Load(dir); err != nil {
			t.Fatal(err)
		}
		if got := loaded.Totals(); !reflect.DeepEqual(got, tot) {
			t.Errorf("loaded Totals %+v, want %+v", got, tot)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "rolled.jsonl"), []byte(`{"by_model":{"m":-1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(10).Load(dir); err == nil {
		t.Error("a negative rolled count loaded")
	}
}

func TestRecentRequestsNewestFirst(t *testing.T) {
	s := New(0)
	for i := 0; i < 5; i++ {
		s.LogRequest(RequestLog{User: "u", Model: "m", CreatedAt: ts(i)})
	}
	recent := s.RecentRequests(3)
	if len(recent) != 3 {
		t.Fatalf("recent = %d rows", len(recent))
	}
	if !(recent[0].ID > recent[1].ID && recent[1].ID > recent[2].ID) {
		t.Errorf("not newest-first: %v %v %v", recent[0].ID, recent[1].ID, recent[2].ID)
	}
}

func TestUserAggregates(t *testing.T) {
	s := New(0)
	s.EnsureUser("alice", "alice@anl.gov", ts(0))
	s.LogRequest(RequestLog{User: "alice", Model: "m", OutputTok: 40, CreatedAt: ts(1)})
	if s.UserCount() != 1 {
		t.Errorf("users = %d", s.UserCount())
	}
	// EnsureUser twice must not reset.
	s.EnsureUser("alice", "alice@anl.gov", ts(5))
	if s.UserCount() != 1 {
		t.Errorf("duplicate EnsureUser changed count")
	}
}

func TestBatchCRUD(t *testing.T) {
	s := New(0)
	s.PutBatch(Batch{ID: "b1", User: "alice", Model: "m", State: BatchQueued, Total: 10, CreatedAt: ts(1)})
	if ok := s.UpdateBatch("b1", func(b *Batch) { b.State = BatchInProgress }); !ok {
		t.Fatal("update failed")
	}
	if s.UpdateBatch("missing", func(*Batch) {}) {
		t.Error("updating a missing batch succeeded")
	}
	b, ok := s.GetBatch("b1")
	if !ok || b.State != BatchInProgress {
		t.Errorf("batch = %+v", b)
	}
	// GetBatch returns a copy: mutations must not leak in.
	b.State = BatchFailed
	again, _ := s.GetBatch("b1")
	if again.State != BatchInProgress {
		t.Error("GetBatch leaked a mutable reference")
	}
}

func TestListBatchesFiltersAndSorts(t *testing.T) {
	s := New(0)
	s.PutBatch(Batch{ID: "b1", User: "alice", CreatedAt: ts(1)})
	s.PutBatch(Batch{ID: "b2", User: "bob", CreatedAt: ts(2)})
	s.PutBatch(Batch{ID: "b3", User: "alice", CreatedAt: ts(3)})
	alice := s.ListBatches("alice")
	if len(alice) != 2 || alice[0].ID != "b3" {
		t.Errorf("alice batches = %+v", alice)
	}
	all := s.ListBatches("")
	if len(all) != 3 {
		t.Errorf("all = %d", len(all))
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := New(0)
	s.LogRequest(RequestLog{User: "alice", Model: "m1", Kind: KindChat, OutputTok: 10, Latency: time.Second, CreatedAt: ts(1)})
	s.LogRequest(RequestLog{User: "bob", Model: "m2", Kind: KindBatch, OutputTok: 20, CreatedAt: ts(2)})
	s.PutBatch(Batch{ID: "b1", User: "alice", Model: "m1", State: BatchCompleted, Total: 5, Completed: 5, CreatedAt: ts(1)})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// A snapshot from before the session table was dropped holds a
	// sessions.jsonl too; Load ignores it.
	old := `{"id":"s1","user":"bob","title":"","models":["m2"],"created_at":"1970-01-01T00:00:01Z","updated_at":"1970-01-01T00:00:02Z","turns":3}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "sessions.jsonl"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(0)
	if err := s2.Load(dir); err != nil {
		t.Fatal(err)
	}
	tot := s2.Totals()
	if tot.Requests != 2 || tot.OutputTokens != 30 || tot.Users != 2 {
		t.Errorf("restored totals = %+v", tot)
	}
	b, ok := s2.GetBatch("b1")
	if !ok || b.State != BatchCompleted || b.Completed != 5 {
		t.Errorf("restored batch = %+v", b)
	}
	// New writes must not collide with restored IDs.
	id := s2.LogRequest(RequestLog{User: "c", Model: "m", CreatedAt: ts(9)})
	if id <= 2 {
		t.Errorf("next log id = %d, want > 2", id)
	}
}

func TestLoadMissingDirIsEmpty(t *testing.T) {
	s := New(0)
	if err := s.Load(t.TempDir()); err != nil {
		t.Fatalf("loading empty dir: %v", err)
	}
	if s.Totals().Requests != 0 {
		t.Error("empty load produced data")
	}
}
