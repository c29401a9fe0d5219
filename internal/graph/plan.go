package graph

import "neusight/internal/kernels"

// Plan is a graph compiled for forecasting. A transformer graph is the
// same dozen kernels repeated per layer, and the end-to-end forecast is a
// sequential sum of per-kernel forecasts (paper Section 5), so a forecast
// needs each distinct kernel predicted once and the per-node order to sum
// in. A Plan holds exactly that and nothing device- or engine-specific:
// one Plan serves every GPU, engine and model generation. Plans are
// immutable once compiled and safe to share between goroutines.
type Plan struct {
	// Kernels are the distinct predictable (non-network) kernels, by
	// kernels.Key, in order of first appearance.
	Kernels []kernels.Kernel
	// Counts[j] is how many nodes are Kernels[j].
	Counts []int
	// Index maps node i (in graph order) to its entry in Kernels, or -1
	// for a network kernel, which the distributed layer prices.
	Index []int32
	// Network counts the network nodes.
	Network int
	// FLOPs is the total over all nodes, summed in node order.
	FLOPs float64
}

// Nodes returns the node count of the compiled graph.
func (p *Plan) Nodes() int { return len(p.Index) }

// Predictable returns how many nodes a kernel engine forecasts.
func (p *Plan) Predictable() int { return len(p.Index) - p.Network }

// Compile builds g's plan in one pass over its nodes.
func Compile(g *Graph) *Plan {
	return compile(len(g.Nodes), func(i int) kernels.Kernel { return g.Nodes[i].Kernel })
}

// CompileKernels builds the plan of a kernel list in execution order.
func CompileKernels(ks []kernels.Kernel) *Plan {
	return compile(len(ks), func(i int) kernels.Kernel { return ks[i] })
}

func compile(nodes int, kernel func(i int) kernels.Kernel) *Plan {
	p := &Plan{Index: make([]int32, nodes)}
	seen := make(map[kernels.Key]int32, 32)
	for i := range p.Index {
		k := kernel(i)
		p.FLOPs += k.FLOPs()
		if k.Category() == kernels.CatNetwork {
			p.Network++
			p.Index[i] = -1
			continue
		}
		key := k.Key()
		j, ok := seen[key]
		if !ok {
			j = int32(len(p.Kernels))
			seen[key] = j
			p.Kernels = append(p.Kernels, k)
			p.Counts = append(p.Counts, 0)
		}
		p.Counts[j]++
		p.Index[i] = j
	}
	return p
}
