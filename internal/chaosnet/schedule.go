package chaosnet

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schedule is the full churn plan of one federation storm, serializable so
// the live harness and the DES calibration twin execute the *same* storm.
// Time is counted in request indices, the one clock both sides share
// exactly, so the plan carries no tempo: the live driver fires an event just
// before issuing request AtIndex, and the DES replay fires it just before
// arrival AtIndex enters the gateway. Fault windows stay a
// pure function of (Seed, index, endpoint, attempt) via Windows.Faulty, so
// they need no events at all; kills, cold restarts, and background GPU
// claims are discrete actions and get one Event each.
type Schedule struct {
	// Seed keys every fault draw (Windows lanes and the 401 lane).
	Seed uint64 `json:"seed"`
	// Endpoints is the federation width the indices rotate over.
	Endpoints int `json:"endpoints"`
	// Requests is the trace length; events at or past it never fire on
	// either side (the live driver stops issuing, so the twin must too).
	Requests int `json:"requests"`
	// Windows is the endpoint fault-burst schedule both sides draw from.
	Windows Windows `json:"windows"`
	// PUnauthorized is the credential-rejection lane probability (live
	// side only: the gateway reacts by rechecking its token cache, which
	// has no routing analogue to replay).
	PUnauthorized float64 `json:"p_unauthorized,omitempty"`
	// Events are sorted by (AtIndex, Kind, Endpoint).
	Events []Event `json:"events"`
}

// EventKind names one churn action.
type EventKind string

const (
	// EventKill tears the endpoint's serving deployment down mid-run:
	// in-flight work dies and the model goes cold there until EventRestart.
	EventKill EventKind = "kill"
	// EventRestart cold-restarts the killed deployment through the real
	// scheduler path (Queued → Starting/prologue → Running → load).
	EventRestart EventKind = "restart"
	// EventBGClaim submits a background science job claiming GPUs GPUs on
	// the endpoint's cluster, held until the matching EventBGRelease.
	EventBGClaim EventKind = "bg-claim"
	// EventBGRelease cancels the endpoint's oldest outstanding background
	// claim, returning its GPUs.
	EventBGRelease EventKind = "bg-release"
)

// kindOrder fixes the within-index firing order: releases free capacity
// before claims take it, and a restart of one endpoint lands before the
// kill of another, so back-to-back events at one index are deterministic.
func kindOrder(k EventKind) int {
	switch k {
	case EventBGRelease:
		return 0
	case EventRestart:
		return 1
	case EventKill:
		return 2
	case EventBGClaim:
		return 3
	}
	return 4
}

// Event is one discrete churn action at a request index.
type Event struct {
	AtIndex  int       `json:"at"`
	Kind     EventKind `json:"kind"`
	Endpoint int       `json:"endpoint"`
	// GPUs sizes a bg-claim; zero otherwise.
	GPUs int `json:"gpus,omitempty"`
}

// Sort orders events canonically; both executors require it.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.AtIndex != b.AtIndex {
			return a.AtIndex < b.AtIndex
		}
		if ka, kb := kindOrder(a.Kind), kindOrder(b.Kind); ka != kb {
			return ka < kb
		}
		return a.Endpoint < b.Endpoint
	})
}

// Canonical returns the schedule's canonical JSON encoding (indented,
// trailing newline). Struct-field order is fixed, so equal schedules
// encode to equal bytes — the byte-identity the replay acceptance check
// and the CI artifact diff rely on.
func (s Schedule) Canonical() []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("chaosnet: schedule encode: %v", err))
	}
	return append(data, '\n')
}

// WriteFile writes the canonical encoding to path.
func (s Schedule) WriteFile(path string) error {
	return os.WriteFile(path, s.Canonical(), 0o644)
}

// ReadSchedule loads a schedule written by WriteFile.
func ReadSchedule(path string) (Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Schedule{}, err
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// Cursor walks the event list as the request index advances. Both
// executors use one: the live driver under its issue loop, the DES replay
// under its arrival loop, so neither can fire events the other skipped.
type Cursor struct {
	s    *Schedule
	next int
}

// Cursor returns a fresh cursor over the (sorted) schedule.
func (s *Schedule) Cursor() *Cursor { return &Cursor{s: s} }

// Advance fires, in order, every not-yet-fired event with AtIndex ≤ idx.
func (cu *Cursor) Advance(idx int, fire func(Event)) {
	for cu.next < len(cu.s.Events) && cu.s.Events[cu.next].AtIndex <= idx {
		ev := cu.s.Events[cu.next]
		cu.next++
		fire(ev)
	}
}

// Mix is the splitmix64 finalizer behind every fault draw, exported so
// scenario drivers can fold arbitrary config words into a seed without
// the weak xor-of-fields mixing that made distinct cells collide.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
