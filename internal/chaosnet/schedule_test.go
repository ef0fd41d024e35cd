package chaosnet

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func testSchedule() Schedule {
	s := Schedule{
		Seed:          42,
		Endpoints:     2,
		Requests:      600,
		Windows:       Windows{BurstEvery: 100, BurstLen: 20, PFault: 0.85, PBackground: 0.01},
		PUnauthorized: 0.005,
		RatePerSec:    0.04,
		Events: []Event{
			{AtIndex: 300, Kind: EventKill, Endpoint: 0},
			{AtIndex: 150, Kind: EventKill, Endpoint: 1},
			{AtIndex: 300, Kind: EventRestart, Endpoint: 1},
			{AtIndex: 200, Kind: EventBGClaim, Endpoint: 0, GPUs: 12},
			{AtIndex: 300, Kind: EventBGRelease, Endpoint: 0},
		},
	}
	s.Sort()
	return s
}

func TestScheduleSortOrder(t *testing.T) {
	s := testSchedule()
	want := []Event{
		{AtIndex: 150, Kind: EventKill, Endpoint: 1},
		{AtIndex: 200, Kind: EventBGClaim, Endpoint: 0, GPUs: 12},
		{AtIndex: 300, Kind: EventBGRelease, Endpoint: 0},
		{AtIndex: 300, Kind: EventRestart, Endpoint: 1},
		{AtIndex: 300, Kind: EventKill, Endpoint: 0},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("sorted events = %+v, want %+v", s.Events, want)
	}
}

func TestScheduleCanonicalRoundTrip(t *testing.T) {
	s := testSchedule()
	a, b := s.Canonical(), s.Canonical()
	if !bytes.Equal(a, b) {
		t.Fatal("Canonical is not deterministic")
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
	if !bytes.Equal(got.Canonical(), a) {
		t.Fatal("round-tripped schedule encodes differently")
	}
}

func TestCursorFiresEachEventOnce(t *testing.T) {
	s := testSchedule()
	cu := s.Cursor()
	var fired []Event
	for i := 0; i < s.Requests; i++ {
		cu.Advance(i, func(ev Event) { fired = append(fired, ev) })
	}
	if !reflect.DeepEqual(fired, s.Events) {
		t.Fatalf("cursor fired %+v, want %+v", fired, s.Events)
	}
	// A sparse advance (concurrency skips indices) still fires everything.
	cu = s.Cursor()
	fired = nil
	cu.Advance(299, func(ev Event) { fired = append(fired, ev) })
	cu.Advance(599, func(ev Event) { fired = append(fired, ev) })
	if len(fired) != len(s.Events) {
		t.Fatalf("sparse cursor fired %d events, want %d", len(fired), len(s.Events))
	}
}

func TestMixMatchesDraw(t *testing.T) {
	// draw must stay the splitmix64 finalizer Mix exposes: seeds folded
	// with Mix and draws keyed by it live in the same family.
	x := Mix(12345)
	if x == 12345 || x == 0 {
		t.Fatalf("Mix(12345) = %d looks like identity", x)
	}
	if Mix(12345) != x {
		t.Fatal("Mix is not deterministic")
	}
	if draw(1, 2, 3, 4) != draw(1, 2, 3, 4) {
		t.Fatal("draw is not deterministic")
	}
}

// FuzzSchedule feeds arbitrary bytes through the schedule decoder
// (ReadSchedule's Unmarshal): whatever decodes must sort, fire every event
// exactly once in index order under a cursor advanced across all of its
// indices, and survive a canonical encode/decode round trip unchanged.
func FuzzSchedule(f *testing.F) {
	f.Add(testSchedule().Canonical())
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{broken`,
		`{"events":[{"at":-5,"kind":"kill","endpoint":-1},{"at":-5,"kind":"nonsense","endpoint":9}]}`,
		`{"seed":18446744073709551615,"endpoints":0,"requests":-1,"windows":{"BurstEvery":-3,"BurstLen":7,"PFault":2,"PBackground":-1},"events":null}`,
		`{"events":[{"at":9223372036854775807,"kind":"bg-claim","endpoint":0,"gpus":-4},{"at":0,"kind":"bg-release","endpoint":0}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		s.Sort()
		cu := s.Cursor()
		fired, last := 0, math.MinInt
		fire := func(ev Event) {
			if ev.AtIndex < last {
				t.Fatalf("event at index %d fired after index %d", ev.AtIndex, last)
			}
			fired, last = fired+1, ev.AtIndex
			s.Windows.Faulty(s.Seed, ev.AtIndex, ev.Endpoint, s.Endpoints, fired)
		}
		for _, ev := range s.Events {
			cu.Advance(ev.AtIndex, fire)
		}
		cu.Advance(math.MaxInt, fire)
		if fired != len(s.Events) {
			t.Fatalf("cursor fired %d of %d events", fired, len(s.Events))
		}
		enc := s.Canonical()
		var back Schedule
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if again := back.Canonical(); !bytes.Equal(enc, again) {
			t.Fatalf("canonical encoding does not round-trip:\n%s\nvs\n%s", enc, again)
		}
	})
}
