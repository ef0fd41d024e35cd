package fabric

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
)

// TestDecide walks Decide through each of its branches, one row per branch:
// every row starts from a zero ScalerState and feeds its views tick by tick.
func TestDecide(t *testing.T) {
	p := ScalePolicy{MaxInstances: 3, HiWater: 4, HiSustain: 2, LoWater: 1, LoSustain: 2}
	var (
		hi     = PoolView{Members: 2, Live: 2, Depth: 20, Releasable: true} // > 4 per live member
		hiLess = PoolView{Members: 2, Live: 1, Depth: 20, Releasable: true} // one member started draining
		mid    = PoolView{Members: 2, Live: 2, Depth: 4, Releasable: true}  // inside the band
		lo     = PoolView{Members: 2, Live: 2, Depth: 1, Releasable: true}  // < 1 per live member
		loHeld = PoolView{Members: 2, Live: 2, Depth: 1, Releasable: false} // nothing the driver may let go of
		atCap  = PoolView{Members: 3, Live: 3, Depth: 30, Releasable: true}
		calm   = PoolView{Members: 3, Live: 3, Depth: 6, Releasable: true}
		empty  = PoolView{}
		proj   = PoolView{Members: 2, Live: 2, Depth: 4, Projected: 9}
	)
	projUpcoming, projAtCap := proj, proj
	projUpcoming.Upcoming = true
	projAtCap.Members = 3
	idle := PoolView{Members: 1, Live: 1, Releasable: true}
	busy := PoolView{Members: 1, Live: 1, Depth: 1, Releasable: true}
	hot := ScalePolicy{MaxInstances: 1, HiWater: 300, HiSustain: 1, LoWater: 1, LoSustain: 3}

	for _, tc := range []struct {
		name  string
		p     ScalePolicy
		ticks []PoolView
		want  []ScaleAction
	}{
		{"sustain: HiSustain ticks per scale-up", p,
			[]PoolView{hi, hi, hi, hi}, []ScaleAction{Hold, Up, Hold, Up}},
		{"a live-count change resets the streak", p,
			[]PoolView{hi, hiLess, hiLess}, []ScaleAction{Hold, Hold, Up}},
		{"Live == 0 resets the streaks and the latch", p,
			[]PoolView{atCap, atCap, empty, atCap, atCap}, []ScaleAction{Hold, Refused, Hold, Hold, Refused}},
		{"one refusal per at-cap episode", p,
			[]PoolView{atCap, atCap, atCap, atCap, atCap, atCap}, []ScaleAction{Hold, Refused, Hold, Hold, Hold, Hold}},
		{"a one-tick flap does not re-count", p,
			[]PoolView{atCap, atCap, calm, atCap, atCap}, []ScaleAction{Hold, Refused, Hold, Hold, Hold}},
		{"HiSustain calm ticks end the episode", p,
			[]PoolView{atCap, atCap, calm, calm, atCap, atCap}, []ScaleAction{Hold, Refused, Hold, Hold, Hold, Refused}},
		{"pre-warm gated by Upcoming, the cap and Projected == 0", p,
			[]PoolView{proj, projUpcoming, projAtCap, mid}, []ScaleAction{PreWarm, Hold, Hold, Hold}},
		{"shrink after LoSustain ticks", p,
			[]PoolView{lo, lo, lo, lo}, []ScaleAction{Hold, Down, Hold, Down}},
		{"a due shrink stays armed while nothing is releasable", p,
			[]PoolView{loHeld, loHeld, loHeld, loHeld, lo}, []ScaleAction{Hold, Hold, Hold, Hold, Down}},
		{"the band in between resets the lo streak", p,
			[]PoolView{lo, mid, lo, lo}, []ScaleAction{Hold, Hold, Hold, Down}},
		{"§3.2.2: release after LoSustain idle ticks", hot,
			[]PoolView{idle, idle, busy, idle, idle, idle}, []ScaleAction{Hold, Hold, Hold, Hold, Hold, Down}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s ScalerState
			for i, v := range tc.ticks {
				if got := Decide(&tc.p, v, &s); got != tc.want[i] {
					t.Fatalf("tick %d: Decide = %d, want %d (state %+v)", i, got, tc.want[i], s)
				}
			}
		})
	}
}

func TestDecideZeroAlloc(t *testing.T) {
	p := ScalePolicy{MaxInstances: 3, HiWater: 4, HiSustain: 2, LoWater: 1, LoSustain: 2}
	var s ScalerState
	views := []PoolView{{Members: 2, Live: 2, Depth: 20}, {Members: 2, Live: 2, Releasable: true}, {Members: 2, Live: 2, Depth: 4, Projected: 9}}
	i := 0
	if allocs := testing.AllocsPerRun(300, func() {
		Decide(&p, views[i%len(views)], &s)
		i++
	}); allocs != 0 {
		t.Errorf("Decide allocates %.1f/op, want 0", allocs)
	}
}

// TestAutoScaleBothWaysKeepsFloor drives the live control loop in both
// directions: load grows the pool past its floor, and once idle it shrinks
// back to exactly MinInstances, never below.
func TestAutoScaleBothWaysKeepsFloor(t *testing.T) {
	f := newTestFabricScaled(t, HubConfig{}, 4, 200) // 200×: see TestAutoScaleUpUnderLoad
	d := f.deploy(t, DeploymentConfig{
		Model:           perfmodel.Llama8B,
		MinInstances:    1,
		MaxInstances:    3,
		ScaleUpDepth:    20,
		HotIdleTimeout:  30 * time.Second,
		AutoScalePeriod: 2 * time.Second,
	})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 50, OutputTok: 1500})
		}()
	}
	loaded := make(chan struct{})
	go func() { wg.Wait(); close(loaded) }()
	peak := 0
	for waiting := true; waiting; {
		select {
		case <-loaded:
			waiting = false
		case <-time.After(time.Millisecond):
		}
		peak = max(peak, d.InstanceCount())
	}
	if peak < 2 {
		t.Fatalf("pool peaked at %d instances under load, want ≥ 2 (%+v)", peak, d.Stats())
	}

	// Idle: 30 s virtual per release is 150 ms of wall time at 200×. Watch
	// for three more timeouts after the pool reaches the floor.
	deadline := time.Now().Add(10 * time.Second)
	var settledAt time.Time
	for settledAt.IsZero() || time.Since(settledAt) < 450*time.Millisecond {
		n := d.InstanceCount()
		if n == 0 {
			t.Fatalf("pool released below MinInstances: 0 instances (%+v)", d.Stats())
		}
		if n == 1 && settledAt.IsZero() {
			settledAt = time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never shrank to its floor: %d instances (%+v)", n, d.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if n := d.InstanceCount(); n != 1 {
		t.Errorf("instances = %d after idling, want exactly MinInstances = 1", n)
	}
	if st := d.Stats(); st.ScaleDowns < 1 {
		t.Errorf("ScaleDowns = %d, want ≥ 1", st.ScaleDowns)
	}
}
