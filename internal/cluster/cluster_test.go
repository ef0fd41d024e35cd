package cluster

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/argonne-first/first/internal/perfmodel"
)

func TestAllocateSingleNode(t *testing.T) {
	c := New("test", 2, 8, perfmodel.A100_40)
	a, err := c.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUs() != 4 || len(a.Parts) != 1 {
		t.Fatalf("allocation = %+v", a)
	}
	st := c.Status()
	if st.FreeGPUs != 12 || st.FreeNodes != 1 {
		t.Errorf("status = %+v", st)
	}
	c.Release(a)
	st = c.Status()
	if st.FreeGPUs != 16 || st.FreeNodes != 2 {
		t.Errorf("status after release = %+v", st)
	}
}

func TestBestFitPacking(t *testing.T) {
	// §3.2.2 co-location: a 6-GPU instance plus two small ones should pack
	// onto one node, keeping the other whole node free.
	c := New("test", 2, 8, perfmodel.A100_40)
	big, err := c.Allocate(6)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Parts[0].NodeID != big.Parts[0].NodeID || s2.Parts[0].NodeID != big.Parts[0].NodeID {
		t.Errorf("small instances did not co-locate: big on %d, small on %d/%d",
			big.Parts[0].NodeID, s1.Parts[0].NodeID, s2.Parts[0].NodeID)
	}
	if st := c.Status(); st.FreeNodes != 1 {
		t.Errorf("free nodes = %d, want 1 (packing preserved a whole node)", st.FreeNodes)
	}
}

func TestMultiNodeAllocation(t *testing.T) {
	// A 405B-class instance: 32 GPUs = 4 whole nodes.
	c := New("test", 6, 8, perfmodel.A100_40)
	a, err := c.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != 4 {
		t.Fatalf("parts = %d, want 4 nodes", len(a.Parts))
	}
	if a.GPUs() != 32 {
		t.Errorf("gpus = %d", a.GPUs())
	}
	if st := c.Status(); st.FreeNodes != 2 {
		t.Errorf("free nodes = %d", st.FreeNodes)
	}
}

func TestMultiNodeNeedsWholeNodes(t *testing.T) {
	c := New("test", 2, 8, perfmodel.A100_40)
	if _, err := c.Allocate(1); err != nil {
		t.Fatal(err)
	}
	// 16 GPUs would need 2 whole nodes; one is partially used.
	_, err := c.Allocate(16)
	var insufficient ErrInsufficient
	if !errors.As(err, &insufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	c := New("test", 1, 8, perfmodel.A100_40)
	if _, err := c.Allocate(9); err == nil {
		t.Error("9 GPUs on an 8-GPU cluster should fail")
	}
	if _, err := c.Allocate(0); err == nil {
		t.Error("zero-GPU request should fail")
	}
	if _, err := c.Allocate(-1); err == nil {
		t.Error("negative request should fail")
	}
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	c := New("test", 1, 8, perfmodel.A100_40)
	a, _ := c.Allocate(4)
	c.Release(a)
	c.Release(a)
	c.Release(nil)
	if st := c.Status(); st.FreeGPUs != 8 {
		t.Errorf("free GPUs = %d after double release", st.FreeGPUs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestExhaustion(t *testing.T) {
	c := New("test", 3, 4, perfmodel.A100_40)
	var allocs []*Allocation
	for i := 0; i < 3; i++ {
		a, err := c.Allocate(4)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, a)
	}
	if _, err := c.Allocate(1); err == nil {
		t.Error("exhausted cluster accepted an allocation")
	}
	c.Release(allocs[1])
	if _, err := c.Allocate(2); err != nil {
		t.Errorf("allocation after release failed: %v", err)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		c := New("prop", 4, 8, perfmodel.A100_40)
		var live []*Allocation
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				idx := int(op) % len(live)
				c.Release(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			} else {
				n := int(op%10) + 1
				if a, err := c.Allocate(n); err == nil {
					live = append(live, a)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, a := range live {
			c.Release(a)
		}
		st := c.Status()
		return st.FreeGPUs == 32 && st.FreeNodes == 4 && c.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
}

func TestPresetClusters(t *testing.T) {
	sophia := NewSophia()
	if sophia.Name() != "sophia" || sophia.NodeCount() != 24 {
		t.Errorf("sophia = %s/%d nodes", sophia.Name(), sophia.NodeCount())
	}
	if st := sophia.Status(); st.TotalGPUs != 192 {
		t.Errorf("sophia GPUs = %d, want 192 (24×8 DGX-A100)", st.TotalGPUs)
	}
	polaris := NewPolaris()
	if polaris.Status().TotalGPUs != 160 {
		t.Errorf("polaris GPUs = %d", polaris.Status().TotalGPUs)
	}
}

func TestAllocationNodes(t *testing.T) {
	c := New("test", 4, 8, perfmodel.A100_40)
	a, _ := c.Allocate(16)
	nodes := a.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestGPUSpecExposed(t *testing.T) {
	c := New("test", 1, 8, perfmodel.A100_80)
	if c.GPU().Name != "A100-80GB" {
		t.Errorf("gpu = %s", c.GPU().Name)
	}
	empty := New("empty", 0, 0, perfmodel.A100_40)
	if empty.GPU().Name != "" {
		t.Error("empty cluster should report zero GPU spec")
	}
}

// recount is Status computed the slow way, from the nodes.
func recount(c *Cluster) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Name: c.name, TotalNodes: len(c.nodes)}
	for _, n := range c.nodes {
		st.TotalGPUs += n.GPUCount
		st.FreeGPUs += n.free
		if n.free == n.GPUCount {
			st.FreeNodes++
		}
	}
	return st
}

// TestStatusMatchesRecountUnderRandomOps drives the counters behind Status
// through every path that moves them — best-fit single-node grants, whole-node
// multi-node grants, refusals, releases, double releases, release of nil — and
// requires Status to equal a from-scratch recount after every step.
func TestStatusMatchesRecountUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := New("prop", 6, 8, perfmodel.A100_40)
	var live, released []*Allocation
	var single, multi, refused, doubles int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // one node's worth or less
			if a, err := c.Allocate(1 + rng.Intn(8)); err == nil {
				live = append(live, a)
				single++
			} else if errors.As(err, new(ErrInsufficient)) {
				refused++
			} else {
				t.Fatal(err)
			}
		case op < 5: // two to four whole nodes
			if a, err := c.Allocate(9 + rng.Intn(24)); err == nil {
				live = append(live, a)
				multi++
			} else if errors.As(err, new(ErrInsufficient)) {
				refused++
			} else {
				t.Fatal(err)
			}
		case op < 8:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				c.Release(live[i])
				released = append(released, live[i])
				live = append(live[:i], live[i+1:]...)
			}
		case op < 9:
			if len(released) > 0 {
				c.Release(released[rng.Intn(len(released))])
				doubles++
			}
		default:
			c.Release(nil)
		}
		if got, want := c.Status(), recount(c); got != want {
			t.Fatalf("step %d: Status() = %+v, recount = %+v", step, got, want)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if single == 0 || multi == 0 || refused == 0 || doubles == 0 {
		t.Fatalf("shape lost a path: %d single-node grants, %d multi-node, %d refusals, %d double releases",
			single, multi, refused, doubles)
	}
}

// TestStatusConcurrentReaders runs Status readers against an allocating
// writer (the live router against the scheduler): under -race this is the
// data-race check, and because the writer only takes and returns two or four
// whole nodes at a time, a reader that ever sees an odd number of free nodes,
// or a partly used one, has seen a grant or a release half applied.
func TestStatusConcurrentReaders(t *testing.T) {
	const nodes, perNode = 6, 8
	c := New("race", nodes, perNode, perfmodel.A100_40)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Status()
				if st.TotalGPUs != nodes*perNode || st.FreeNodes%2 != 0 || st.FreeGPUs != st.FreeNodes*perNode {
					t.Errorf("half-applied snapshot: %+v", st)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(22))
	var live []*Allocation
	for step := 0; step < 20000; step++ {
		if rng.Intn(2) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			c.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		} else if a, err := c.Allocate((2 + 2*rng.Intn(2)) * perNode); err == nil {
			live = append(live, a)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
