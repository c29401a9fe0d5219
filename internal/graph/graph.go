// Package graph is the dataflow IR standing in for Torch.fx capture (paper
// Section 5): a DAG of kernels with the metadata NeuSight records per node —
// operator type and tensor dimensions. It also derives training graphs
// (forward + backward kernels) and implements the operator-fusion pass of
// Section 4.4.
package graph

import (
	"fmt"

	"neusight/internal/kernels"
)

// Node is one kernel instance in the dataflow graph.
type Node struct {
	ID     int
	Kernel kernels.Kernel
	Deps   []int // IDs of nodes whose outputs this node consumes
}

// Graph is a DAG of kernels. Nodes are stored in insertion order, which is
// required to be a valid topological order (Add enforces it).
type Graph struct {
	Name  string
	Nodes []*Node

	// A model graph is hundreds of nodes built in one go, so Add gives no
	// node a heap object of its own: nodes live in chunked slabs (a full
	// slab stays where it is and a new one is started, so the pointers in
	// Nodes stay valid) and every node's Deps in one arena, filled likewise.
	slab []Node
	deps []int
}

// New returns an empty graph.
func New(name string) *Graph { return &Graph{Name: name} }

// Reserve sizes the node and dependency storage for nodes more nodes with
// deps dependencies between them, so that a builder that knows its size
// allocates once. It is a hint: Add grows the storage when it runs out.
func (g *Graph) Reserve(nodes, deps int) {
	if free := cap(g.Nodes) - len(g.Nodes); free < nodes {
		g.Nodes = append(make([]*Node, 0, len(g.Nodes)+nodes), g.Nodes...)
	}
	if cap(g.slab)-len(g.slab) < nodes {
		g.slab = make([]Node, 0, nodes)
	}
	if cap(g.deps)-len(g.deps) < deps {
		g.deps = make([]int, 0, deps)
	}
}

// Add appends a kernel depending on the given earlier nodes and returns its
// ID. Dependencies must reference already-added nodes, keeping insertion
// order topological by construction.
func (g *Graph) Add(k kernels.Kernel, deps ...int) int {
	id := len(g.Nodes)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("graph: node %d depends on invalid node %d", id, d))
		}
	}
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Node, 0, max(32, id))
	}
	g.slab = g.slab[:len(g.slab)+1] // zeroed by make; filled in place
	n := &g.slab[len(g.slab)-1]
	n.ID, n.Kernel = id, k
	if len(deps) > 0 {
		if cap(g.deps)-len(g.deps) < len(deps) {
			g.deps = make([]int, 0, max(64, 2*cap(g.deps), len(deps)))
		}
		lo := len(g.deps)
		g.deps = append(g.deps, deps...)
		// Capped at its own length: a caller's append to Deps reallocates
		// instead of writing over the next node's.
		n.Deps = g.deps[lo:len(g.deps):len(g.deps)]
	}
	g.Nodes = append(g.Nodes, n)
	return id
}

// size returns the node count and the dependency count over all nodes.
func (g *Graph) size() (nodes, deps int) {
	for _, n := range g.Nodes {
		deps += len(n.Deps)
	}
	return len(g.Nodes), deps
}

// Kernels returns the kernels in topological (insertion) order.
func (g *Graph) Kernels() []kernels.Kernel {
	ks := make([]kernels.Kernel, len(g.Nodes))
	for i, n := range g.Nodes {
		ks[i] = n.Kernel
	}
	return ks
}

// TotalFLOPs sums FLOPs over all nodes.
func (g *Graph) TotalFLOPs() float64 {
	s := 0.0
	for _, n := range g.Nodes {
		s += n.Kernel.FLOPs()
	}
	return s
}

// TotalBytes sums memory traffic over all nodes.
func (g *Graph) TotalBytes() float64 {
	s := 0.0
	for _, n := range g.Nodes {
		s += n.Kernel.MemBytes()
	}
	return s
}

// Latency aggregates per-kernel latencies under the paper's sequential-
// execution assumption (Section 2.2): kernels execute one after another on
// the device, so the graph latency is the sum.
func (g *Graph) Latency(kernelLatency func(kernels.Kernel) float64) float64 {
	s := 0.0
	for _, n := range g.Nodes {
		s += kernelLatency(n.Kernel)
	}
	return s
}

// LatencyByCategory decomposes Latency by predictor category (paper
// Table 6's breakdown).
func (g *Graph) LatencyByCategory(kernelLatency func(kernels.Kernel) float64) map[kernels.Category]float64 {
	out := map[kernels.Category]float64{}
	for _, n := range g.Nodes {
		out[n.Kernel.Category()] += kernelLatency(n.Kernel)
	}
	return out
}

// CountByCategory tallies node counts per predictor category.
func (g *Graph) CountByCategory() map[kernels.Category]int {
	out := map[kernels.Category]int{}
	for _, n := range g.Nodes {
		out[n.Kernel.Category()]++
	}
	return out
}

// Consumers returns, for each node ID, the IDs of nodes that consume it.
func (g *Graph) Consumers() [][]int {
	cons := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, d := range n.Deps {
			cons[d] = append(cons[d], n.ID)
		}
	}
	return cons
}

// Validate checks the graph invariants: IDs are dense, deps point backwards.
func (g *Graph) Validate() error {
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph %q: node at index %d has ID %d", g.Name, i, n.ID)
		}
		for _, d := range n.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("graph %q: node %d has forward/invalid dep %d", g.Name, i, d)
			}
		}
	}
	return nil
}

// WithDType returns a copy of the graph with every kernel at precision d.
func (g *Graph) WithDType(d kernels.DType) *Graph {
	out := New(g.Name + "/" + d.String())
	out.Reserve(g.size())
	for _, n := range g.Nodes {
		out.Add(n.Kernel.WithDType(d), n.Deps...)
	}
	return out
}
