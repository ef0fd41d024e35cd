// Package cluster models an HPC cluster's compute inventory: nodes with
// GPUs that serving instances are placed onto. It substitutes for Sophia
// (24 DGX-A100 nodes, 8×A100 each) and Polaris in the paper's deployment.
// Allocations are whole GPUs; multiple model instances may co-locate on one
// node (§3.2.2: "a 70B model might use 6 GPUs, while 8B and 7B models use
// the remaining 2").
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/argonne-first/first/internal/perfmodel"
)

// Node is one compute node.
type Node struct {
	ID       int
	GPUCount int
	GPU      perfmodel.GPUSpec
	// used[i] marks GPU i as allocated.
	used []bool
	free int
}

// FreeGPUs returns the node's unallocated GPU count.
func (n *Node) FreeGPUs() int { return n.free }

// Allocation is a granted set of GPUs, possibly spanning nodes (multi-node
// tensor parallel for very large models).
type Allocation struct {
	ID    int64
	Parts []AllocationPart
	gpus  int
}

// AllocationPart is the slice of one node inside an allocation.
type AllocationPart struct {
	NodeID int
	GPUs   []int
}

// GPUs returns the total GPU count of the allocation.
func (a *Allocation) GPUs() int { return a.gpus }

// Nodes returns the IDs of nodes the allocation touches.
func (a *Allocation) Nodes() []int {
	ids := make([]int, len(a.Parts))
	for i, p := range a.Parts {
		ids[i] = p.NodeID
	}
	return ids
}

// Cluster is a named pool of nodes.
type Cluster struct {
	name string

	mu      sync.Mutex
	nodes   []*Node
	nextID  int64
	granted map[int64]*Allocation
	// Inventory counts behind Status, kept current under mu where grantLocked
	// and Release flip a node's GPUs; CheckInvariants recounts them from the
	// nodes. Each grant and each release ends by publishing the two that
	// change as one word, so Status — asked once per candidate cluster per
	// routed request — is one atomic load that sees every Allocate and Release
	// whole or not at all, and takes no lock (taking mu there instead measured
	// 8 % off des-autoscale and des-federate req_per_s, ten of ten pairs each).
	totalGPUs, freeGPUs, freeNodes int
	inv                            atomic.Uint64 // freeGPUs<<32 | freeNodes
}

// publishLocked makes the counts as they now stand the ones Status reports.
func (c *Cluster) publishLocked() {
	c.inv.Store(uint64(c.freeGPUs)<<32 | uint64(c.freeNodes))
}

// New builds a homogeneous cluster.
func New(name string, nodeCount, gpusPerNode int, gpu perfmodel.GPUSpec) *Cluster {
	c := &Cluster{name: name, granted: make(map[int64]*Allocation)}
	for i := 0; i < nodeCount; i++ {
		c.nodes = append(c.nodes, &Node{
			ID:       i,
			GPUCount: gpusPerNode,
			GPU:      gpu,
			used:     make([]bool, gpusPerNode),
			free:     gpusPerNode,
		})
		c.totalGPUs += gpusPerNode
	}
	c.freeGPUs, c.freeNodes = c.totalGPUs, len(c.nodes)
	c.publishLocked()
	return c
}

// NewSophia returns the paper's proof-of-concept cluster: 24 DGX-A100 nodes
// with 8 GPUs each.
func NewSophia() *Cluster { return New("sophia", 24, 8, perfmodel.A100_40) }

// NewPolaris returns the second federation target (§4.5), sized to Polaris'
// 4-GPU nodes (small slice of the real 560-node system).
func NewPolaris() *Cluster { return New("polaris", 40, 4, perfmodel.A100_40) }

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.name }

// GPU returns the cluster's GPU spec (homogeneous clusters).
func (c *Cluster) GPU() perfmodel.GPUSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) == 0 {
		return perfmodel.GPUSpec{}
	}
	return c.nodes[0].GPU
}

// NodeCount returns the number of nodes.
func (c *Cluster) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Allocate grants gpus GPUs: packed onto one node when they fit (preferring
// the fullest node that still fits, to keep whole nodes free for large
// jobs), otherwise assembled from whole free nodes.
func (c *Cluster) Allocate(gpus int) (*Allocation, error) {
	if gpus <= 0 {
		return nil, fmt.Errorf("cluster %s: invalid GPU request %d", c.name, gpus)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	perNode := 0
	if len(c.nodes) > 0 {
		perNode = c.nodes[0].GPUCount
	}
	if perNode == 0 {
		return nil, fmt.Errorf("cluster %s: no nodes", c.name)
	}

	if gpus <= perNode {
		// Best-fit: the node with the fewest free GPUs that still fits.
		var best *Node
		for _, n := range c.nodes {
			if n.free >= gpus && (best == nil || n.free < best.free) {
				best = n
			}
		}
		if best == nil {
			return nil, ErrInsufficient{Cluster: c.name, Requested: gpus}
		}
		return c.grantLocked([]*Node{best}, gpus), nil
	}

	// Multi-node: whole free nodes only.
	needNodes := (gpus + perNode - 1) / perNode
	var free []*Node
	for _, n := range c.nodes {
		if n.free == n.GPUCount {
			free = append(free, n)
			if len(free) == needNodes {
				break
			}
		}
	}
	if len(free) < needNodes {
		return nil, ErrInsufficient{Cluster: c.name, Requested: gpus}
	}
	return c.grantLocked(free, gpus), nil
}

func (c *Cluster) grantLocked(nodes []*Node, gpus int) *Allocation {
	c.nextID++
	alloc := &Allocation{ID: c.nextID, gpus: gpus}
	remaining := gpus
	for _, n := range nodes {
		take := remaining
		if take > n.free {
			take = n.free
		}
		part := AllocationPart{NodeID: n.ID}
		was := n.free
		for i := 0; i < n.GPUCount && take > 0; i++ {
			if !n.used[i] {
				n.used[i] = true
				n.free--
				part.GPUs = append(part.GPUs, i)
				take--
				remaining--
			}
		}
		c.noteFree(n, was)
		alloc.Parts = append(alloc.Parts, part)
		if remaining == 0 {
			break
		}
	}
	c.granted[alloc.ID] = alloc
	c.publishLocked()
	return alloc
}

// Release returns an allocation's GPUs to the pool. Releasing twice is a
// no-op.
func (c *Cluster) Release(a *Allocation) {
	if a == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.granted[a.ID]; !ok {
		return
	}
	delete(c.granted, a.ID)
	for _, part := range a.Parts {
		n := c.nodes[part.NodeID]
		was := n.free
		for _, g := range part.GPUs {
			if n.used[g] {
				n.used[g] = false
				n.free++
			}
		}
		c.noteFree(n, was)
	}
	c.publishLocked()
}

// noteFree carries a node's free count, changed from was, into the cluster's
// inventory counts. Caller holds mu.
func (c *Cluster) noteFree(n *Node, was int) {
	c.freeGPUs += n.free - was
	if was == n.GPUCount && n.free < was {
		c.freeNodes--
	} else if was < n.GPUCount && n.free == n.GPUCount {
		c.freeNodes++
	}
}

// Status is the publicly-queryable facility state the federation layer uses
// (§4.5: "queries the publicly available status of each cluster").
type Status struct {
	Name       string `json:"name"`
	TotalNodes int    `json:"total_nodes"`
	FreeNodes  int    `json:"free_nodes"`
	TotalGPUs  int    `json:"total_gpus"`
	FreeGPUs   int    `json:"free_gpus"`
}

// Status snapshots the cluster inventory in O(1), without the mutex: the
// counts as the last completed Allocate or Release left them.
func (c *Cluster) Status() Status {
	inv := c.inv.Load()
	return Status{Name: c.name, TotalNodes: len(c.nodes), FreeNodes: int(uint32(inv)),
		TotalGPUs: c.totalGPUs, FreeGPUs: int(inv >> 32)}
}

// CheckInvariants verifies GPU accounting; property tests call it.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	counted := make(map[int]int)
	//firstlint:allow det commutative GPU accounting: a duplicate or count mismatch fails regardless of visit order
	for _, a := range c.granted {
		for _, p := range a.Parts {
			seen := make(map[int]bool)
			for _, g := range p.GPUs {
				if seen[g] {
					return fmt.Errorf("cluster %s: allocation %d lists GPU %d/%d twice", c.name, a.ID, p.NodeID, g)
				}
				seen[g] = true
				counted[p.NodeID]++
			}
		}
	}
	var total, free, freeNodes int
	for _, n := range c.nodes {
		used := n.GPUCount - n.free
		if counted[n.ID] != used {
			return fmt.Errorf("cluster %s: node %d usage drift: granted=%d marked=%d",
				c.name, n.ID, counted[n.ID], used)
		}
		total += n.GPUCount
		free += n.free
		if n.free == n.GPUCount {
			freeNodes++
		}
	}
	if st := c.Status(); total != c.totalGPUs || free != c.freeGPUs || freeNodes != c.freeNodes ||
		st.FreeGPUs != free || st.FreeNodes != freeNodes {
		return fmt.Errorf("cluster %s: counter drift: total/free GPUs, free nodes kept as %d/%d/%d, published as %d/%d/%d, recounted %d/%d/%d",
			c.name, c.totalGPUs, c.freeGPUs, c.freeNodes, st.TotalGPUs, st.FreeGPUs, st.FreeNodes, total, free, freeNodes)
	}
	return nil
}

// ErrInsufficient reports that the cluster cannot satisfy a request now.
type ErrInsufficient struct {
	Cluster   string
	Requested int
}

func (e ErrInsufficient) Error() string {
	return fmt.Sprintf("cluster %s: insufficient free GPUs for request of %d", e.Cluster, e.Requested)
}
