package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// journals are the four JSONL files Load replays: a table each, and the
// rolled-up counters.
var journals = []string{"requests.jsonl", "users.jsonl", "batches.jsonl", "rolled.jsonl"}

// FuzzStoreLoad writes arbitrary bytes as each of the four journals Load
// replays: Load never panics, and a store it accepts survives Save → Load
// unchanged — saved again, it writes the same bytes.
func FuzzStoreLoad(f *testing.F) {
	for _, s := range []string{
		``, "\n\n", `{}`, `null`, `[]`, `{broken`, "{}\n{\"id\":", `{"id":"x"}`,
		`{"id":-1,"latency_ns":1e3}`, `{"created_at":"not a time"}`,
		`{"created_at":"0000-01-01T00:00:00+01:00","first_seen":"9999-12-31T23:59:59-23:59"}`,
		`{"sub":"a"}` + "\n" + `{"sub":"a","requests":2}`,
		`{"id":"s","models":null}` + "\r\n" + `{"id":"t","models":[]}`,
		"{\"user\":\"\xff\xfe\"}",
		`{"requests":3,"output_tokens":-1}`, `{"by_kind":{"chat":-2}}`, `{"by_model":{"m":1}}` + "\n" + `{"requests":1}`,
	} {
		f.Add([]byte(s))
	}
	// One row of every table as Save writes it, and a row rolled out.
	seed := New(1)
	seed.LogRequest(RequestLog{User: "alice", Model: "m1", Kind: KindChat, OutputTok: 10, Latency: time.Second, Status: "ok", CreatedAt: ts(1)})
	seed.LogRequest(RequestLog{User: "bob", Model: "m2", Kind: KindCompletion, OutputTok: 3, Status: "error", CreatedAt: ts(2)})
	seed.PutBatch(Batch{ID: "b1", User: "alice", Model: "m1", State: BatchFailed, Total: 5, Error: "boom", CreatedAt: ts(1), FinishedAt: ts(3)})
	dir := f.TempDir()
	if err := seed.Save(dir); err != nil {
		f.Fatal(err)
	}
	for _, name := range journals {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A row of the session table older snapshots kept, written into a
	// journal Load still replays.
	f.Add([]byte(`{"id":"s1","user":"bob","title":"t","models":["m2"],"created_at":"2025-01-01T00:00:01Z","updated_at":"2025-01-01T00:00:02Z","turns":3}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range journals {
			in := t.TempDir()
			if err := os.WriteFile(filepath.Join(in, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(0)
			if err := s.Load(in); err != nil {
				continue
			}
			first := saved(t, s)
			again := New(0)
			if err := again.Load(first); err != nil {
				t.Fatalf("%s from %q: the saved store does not load: %v", name, data, err)
			}
			second := saved(t, again)
			for _, j := range journals {
				a, errA := os.ReadFile(filepath.Join(first, j))
				b, errB := os.ReadFile(filepath.Join(second, j))
				if errA != nil || errB != nil {
					t.Fatalf("reading back %s: %v, %v", j, errA, errB)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s from %q: %s changed across Save → Load:\n%s\nbecame\n%s", name, data, j, a, b)
				}
			}
		}
	})
}

// saved writes s to a fresh directory and returns it.
func saved(t *testing.T, s *Store) string {
	t.Helper()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save of a loaded store: %v", err)
	}
	return dir
}
