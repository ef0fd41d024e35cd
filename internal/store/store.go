// Package store is the PostgreSQL substitute backing the Inference Gateway
// (§3.1): it persists user activity logs, user records and batch jobs in
// typed in-memory tables with optional JSON-lines snapshots on disk. The
// aggregate queries feed the dashboard's summary metrics (the paper's
// headline "8.7 million requests / 76 users / 10 billion tokens" counters).
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// RequestKind classifies logged requests.
type RequestKind string

// Request kinds.
const (
	KindChat       RequestKind = "chat"
	KindCompletion RequestKind = "completion"
	KindEmbedding  RequestKind = "embedding"
	KindBatch      RequestKind = "batch"
)

// RequestLog is one logged API request (§3.1.1: "logging all user
// activities in the PostgreSQL database").
type RequestLog struct {
	ID        int64         `json:"id"`
	User      string        `json:"user"`
	Model     string        `json:"model"`
	Endpoint  string        `json:"endpoint"`
	Cluster   string        `json:"cluster"`
	Kind      RequestKind   `json:"kind"`
	PromptTok int           `json:"prompt_tokens"`
	OutputTok int           `json:"output_tokens"`
	Latency   time.Duration `json:"latency_ns"`
	Status    string        `json:"status"`
	CreatedAt time.Time     `json:"created_at"`
}

// User is a registered platform user.
type User struct {
	Sub       string    `json:"sub"`
	Username  string    `json:"username"`
	FirstSeen time.Time `json:"first_seen"`
	Requests  int64     `json:"requests"`
	Tokens    int64     `json:"tokens"`
}

// BatchState tracks a batch job through its lifecycle (§4.4).
type BatchState string

// Batch states.
const (
	BatchValidating BatchState = "validating"
	BatchQueued     BatchState = "queued"
	BatchInProgress BatchState = "in_progress"
	BatchCompleted  BatchState = "completed"
	BatchFailed     BatchState = "failed"
	BatchCancelled  BatchState = "cancelled"
)

// Batch is a stored batch job record.
type Batch struct {
	ID           string     `json:"id"`
	User         string     `json:"user"`
	Model        string     `json:"model"`
	Endpoint     string     `json:"endpoint"`
	State        BatchState `json:"state"`
	Total        int        `json:"total"`
	Completed    int        `json:"completed"`
	OutputTokens int64      `json:"output_tokens"`
	Error        string     `json:"error,omitempty"`
	CreatedAt    time.Time  `json:"created_at"`
	StartedAt    time.Time  `json:"started_at,omitempty"`
	FinishedAt   time.Time  `json:"finished_at,omitempty"`
}

// Store is the database.
type Store struct {
	mu      sync.Mutex
	nextLog int64
	// logs is the retained request window, a ring of at most maxLogs rows:
	// below maxLogs it grows by append, oldest first; once full, a new row
	// overwrites the oldest, logs[head], and head moves on. Rows that leave
	// the window are summarized into the rolled counters, like a rolled-up
	// partition, so no row is copied once the window is full.
	logs    []RequestLog
	head    int
	maxLogs int
	users   map[string]*User
	batches map[string]*Batch
	rolled  rollup
}

// rollup counts the rows that left the window; Save writes it as a journal
// of one row.
type rollup struct {
	Requests     int64            `json:"requests"`
	OutputTokens int64            `json:"output_tokens"`
	ByModel      map[string]int64 `json:"by_model"`
	ByKind       map[string]int64 `json:"by_kind"`
}

// New returns an empty store retaining up to maxLogs recent request rows
// (0 = default 100000).
func New(maxLogs int) *Store {
	if maxLogs <= 0 {
		maxLogs = 100000
	}
	return &Store{
		users:   make(map[string]*User),
		batches: make(map[string]*Batch),
		maxLogs: maxLogs,
		rolled:  rollup{ByModel: make(map[string]int64), ByKind: make(map[string]int64)},
	}
}

// LogRequest appends a request row and updates the user's aggregates.
//
//first:hotpath once the window is full: pinned by TestLogRequestZeroAllocOnFullRing (ring_test.go)
func (s *Store) LogRequest(r RequestLog) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextLog++
	r.ID = s.nextLog
	s.appendLog(r)
	u, ok := s.users[r.User]
	if !ok {
		u = &User{Sub: r.User, Username: r.User, FirstSeen: r.CreatedAt} //firstlint:allow hotpath a user's first row registers them once
		s.users[r.User] = u
	}
	u.Requests++
	u.Tokens += int64(r.OutputTok)
	return r.ID
}

// appendLog adds r as the newest row of the window: by append below
// maxLogs, growing the array to at most maxLogs rows, and over the oldest
// row, rolled up first, once the window is full.
//
//first:hotpath reached through LogRequest's pin
func (s *Store) appendLog(r RequestLog) {
	if n := len(s.logs); n < s.maxLogs {
		if n == cap(s.logs) {
			grown := make([]RequestLog, n, min(max(2*n, 16), s.maxLogs)) //firstlint:allow hotpath the window grows to maxLogs rows once
			copy(grown, s.logs)
			s.logs = grown
		}
		s.logs = append(s.logs, r)
		return
	}
	s.rollUp(&s.logs[s.head])
	s.logs[s.head] = r
	s.head++
	if s.head == len(s.logs) {
		s.head = 0
	}
}

// rollUp counts a row that leaves the window into the rolled counters.
//
//first:hotpath reached through LogRequest's pin
func (s *Store) rollUp(r *RequestLog) {
	s.rolled.Requests++
	s.rolled.OutputTokens += int64(r.OutputTok)
	s.rolled.ByModel[r.Model]++
	s.rolled.ByKind[string(r.Kind)]++
}

// window returns the retained rows oldest first, as the ring's two runs.
func (s *Store) window() (older, newer []RequestLog) {
	return s.logs[s.head:], s.logs[:s.head]
}

// EnsureUser registers a user record (login path).
func (s *Store) EnsureUser(sub, username string, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[sub]; !ok {
		s.users[sub] = &User{Sub: sub, Username: username, FirstSeen: at}
	}
}

// RecentRequests returns up to n newest request rows, newest first.
func (s *Store) RecentRequests(n int) []RequestLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > len(s.logs) {
		n = len(s.logs)
	}
	out := make([]RequestLog, n)
	for i := range out {
		// The i-th newest row sits i places behind the newest, logs[head-1].
		j := s.head - 1 - i
		if j < 0 {
			j += len(s.logs)
		}
		out[i] = s.logs[j]
	}
	return out
}

// UserCount returns the number of distinct users seen.
func (s *Store) UserCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.users)
}

// Totals aggregates platform counters for the dashboard.
type Totals struct {
	Requests     int64            `json:"requests"`
	OutputTokens int64            `json:"output_tokens"`
	Users        int              `json:"users"`
	ByModel      map[string]int64 `json:"requests_by_model"`
	ByKind       map[string]int64 `json:"requests_by_kind"`
}

// Totals computes aggregate statistics over all logged traffic.
func (s *Store) Totals() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := Totals{
		Requests:     s.rolled.Requests + int64(len(s.logs)),
		OutputTokens: s.rolled.OutputTokens,
		Users:        len(s.users),
		ByModel:      maps.Clone(s.rolled.ByModel),
		ByKind:       maps.Clone(s.rolled.ByKind),
	}
	older, newer := s.window()
	for _, run := range [2][]RequestLog{older, newer} {
		for _, r := range run {
			t.OutputTokens += int64(r.OutputTok)
			t.ByModel[r.Model]++
			t.ByKind[string(r.Kind)]++
		}
	}
	return t
}

// PutBatch inserts or updates a batch record.
func (s *Store) PutBatch(b Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := b
	s.batches[b.ID] = &cp
}

// UpdateBatch applies fn to a batch record under the store lock.
func (s *Store) UpdateBatch(id string, fn func(*Batch)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	if !ok {
		return false
	}
	fn(b)
	return true
}

// GetBatch fetches a batch record.
func (s *Store) GetBatch(id string) (Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	if !ok {
		return Batch{}, false
	}
	return *b, true
}

// ListBatches returns all batches for a user (all users when sub == ""),
// newest first.
func (s *Store) ListBatches(sub string) []Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Batch
	for _, b := range s.batches {
		if sub == "" || b.User == sub {
			out = append(out, *b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.After(out[j].CreatedAt) })
	return out
}

// snapshot is the on-disk format.
type snapshot struct {
	Logs    []RequestLog `json:"logs"`
	Users   []User       `json:"users"`
	Batches []Batch      `json:"batches"`
	Rolled  rollup       `json:"rolled"`
}

// Save writes a JSONL snapshot (one table per file) under dir, and the
// counters of the rows that left the window as a fourth journal.
func (s *Store) Save(dir string) error {
	s.mu.Lock()
	older, newer := s.window()
	snap := snapshot{Logs: append(append(make([]RequestLog, 0, len(s.logs)), older...), newer...)}
	snap.Rolled = rollup{s.rolled.Requests, s.rolled.OutputTokens, maps.Clone(s.rolled.ByModel), maps.Clone(s.rolled.ByKind)}
	for _, u := range s.users {
		snap.Users = append(snap.Users, *u)
	}
	for _, b := range s.batches {
		snap.Batches = append(snap.Batches, *b)
	}
	s.mu.Unlock()
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].Sub < snap.Users[j].Sub })
	sort.Slice(snap.Batches, func(i, j int) bool { return snap.Batches[i].ID < snap.Batches[j].ID })

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "requests.jsonl"), snap.Logs); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "users.jsonl"), snap.Users); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "batches.jsonl"), snap.Batches); err != nil {
		return err
	}
	return writeJSONL(filepath.Join(dir, "rolled.jsonl"), []rollup{snap.Rolled})
}

// Load restores a snapshot previously written by Save. Missing files are
// treated as empty tables, and a missing rolled.jsonl as counters at zero.
// The rolled counters are replaced by the journal's; of more request rows
// than the window holds, the newest maxLogs are kept and the rest rolled up
// on top, so Totals reads as if the store had logged them all. Any other
// file under dir, such as the sessions.jsonl of an older snapshot, is
// ignored.
func (s *Store) Load(dir string) error {
	logs, err := readJSONL[RequestLog](filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		return err
	}
	users, err := readJSONL[User](filepath.Join(dir, "users.jsonl"))
	if err != nil {
		return err
	}
	batches, err := readJSONL[Batch](filepath.Join(dir, "batches.jsonl"))
	if err != nil {
		return err
	}
	rolls, err := readJSONL[rollup](filepath.Join(dir, "rolled.jsonl"))
	if err != nil {
		return err
	}
	rolled, err := loadRollup(rolls)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rolled = rolled
	for _, r := range logs {
		if r.ID > s.nextLog {
			s.nextLog = r.ID
		}
	}
	// Rows beyond the window are rolled up as LogRequest would have rolled
	// them, oldest first, and the newest maxLogs rows become the window, in
	// an array of their own.
	drop := max(len(logs)-s.maxLogs, 0)
	for i := range logs[:drop] {
		s.rollUp(&logs[i])
	}
	s.logs, s.head = logs[drop:], 0
	if drop > 0 || cap(s.logs) > s.maxLogs {
		s.logs = make([]RequestLog, len(logs)-drop)
		copy(s.logs, logs[drop:])
	}
	s.users = make(map[string]*User, len(users))
	for i := range users {
		u := users[i]
		s.users[u.Sub] = &u
	}
	s.batches = make(map[string]*Batch, len(batches))
	for i := range batches {
		b := batches[i]
		s.batches[b.ID] = &b
	}
	return nil
}

// loadRollup returns the counters a rolled.jsonl of at most one row holds,
// zero for none; more rows or a negative count are an error.
func loadRollup(rows []rollup) (rollup, error) {
	r := rollup{ByModel: make(map[string]int64), ByKind: make(map[string]int64)}
	if len(rows) > 1 {
		return r, fmt.Errorf("store: rolled.jsonl holds %d rows, want at most 1", len(rows))
	}
	if len(rows) == 1 {
		r.Requests, r.OutputTokens = rows[0].Requests, rows[0].OutputTokens
		maps.Copy(r.ByModel, rows[0].ByModel)
		maps.Copy(r.ByKind, rows[0].ByKind)
	}
	negative := r.Requests < 0 || r.OutputTokens < 0
	for _, counts := range []map[string]int64{r.ByModel, r.ByKind} {
		for _, n := range counts {
			negative = negative || n < 0
		}
	}
	if negative {
		return r, fmt.Errorf("store: rolled.jsonl holds a negative count")
	}
	return r, nil
}

// writeJSONL writes one table, a JSON row per line, and reports an error
// closing the file too, so that a table not written whole is not taken for
// saved.
func writeJSONL[T any](path string, rows []T) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

// readJSONL reads one table written by writeJSONL, skipping blank lines; a
// missing file is an empty table.
func readJSONL[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var rows []T
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r T
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}
