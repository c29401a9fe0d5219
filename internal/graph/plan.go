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
	return compile(len(g.Nodes), func(i int) *kernels.Kernel { return &g.Nodes[i].Kernel })
}

// CompileKernels builds the plan of a kernel list in execution order.
func CompileKernels(ks []kernels.Kernel) *Plan {
	return compile(len(ks), func(i int) *kernels.Kernel { return &ks[i] })
}

// shapeSlot is a shape's slot in compile's direct-mapped table of 256: the
// top byte of a cheap integer hash of (op, dtype, B, M, K, N).
func shapeSlot(k *kernels.Kernel) uint64 {
	const mix = 0x9E3779B97F4A7C15
	h := uint64(k.Op)<<1 | uint64(k.DType)
	h = (((h*mix+uint64(k.B))*mix+uint64(k.M))*mix+uint64(k.K))*mix + uint64(k.N)
	return h * mix >> 56
}

// sameShape reports whether two kernels that are their shape and nothing
// else are the same kernel.
func sameShape(a, b *kernels.Kernel) bool {
	return a.Op == b.Op && a.B == b.B && a.M == b.M && a.K == b.K && a.N == b.N && a.DType == b.DType
}

// compile finds the distinct kernels by kernels.Key. Hashing that key for
// every node was most of a compile, and nearly every node of a model graph
// is a plain shape seen a layer ago, so those resolve through a
// direct-mapped table on shapeSlot and only the rest — fused and conv
// kernels, whose identity is more than their shape, and shapes whose slot
// another shape holds — go to the map. A distinct kernel is in the table or
// in the map, never both: a slot, once taken, is never given up, so a shape
// that finds its slot empty cannot have been sent to the map before.
func compile(nodes int, kernel func(i int) *kernels.Kernel) *Plan {
	p := &Plan{Index: make([]int32, nodes), Kernels: make([]kernels.Kernel, 0, 16), Counts: make([]int, 0, 16)}
	var table [256]int32 // entry in p.Kernels + 1; 0 is empty
	var seen map[kernels.Key]int32
	for i := range p.Index {
		k := kernel(i)
		p.FLOPs += k.FLOPs()
		if k.Category() == kernels.CatNetwork {
			p.Network++
			p.Index[i] = -1
			continue
		}
		j := int32(len(p.Kernels)) // k's entry if this is its first appearance
		slot := &table[shapeSlot(k)]
		// plain: every kernels.Key field beyond the shape is zero.
		plain := !k.Fused && k.FusedFLOPs == 0 && k.FusedBytes == 0 && len(k.FusedOps) == 0 && k.ConvInputElems == 0
		switch {
		case plain && *slot == 0:
			*slot = j + 1
		case plain && sameShape(k, &p.Kernels[*slot-1]):
			j = *slot - 1
		default:
			if seen == nil {
				seen = map[kernels.Key]int32{}
			}
			key := k.Key()
			if found, ok := seen[key]; ok {
				j = found
			} else {
				seen[key] = j
			}
		}
		if int(j) == len(p.Kernels) {
			p.Kernels = append(p.Kernels, *k)
			p.Counts = append(p.Counts, 0)
		}
		p.Counts[j]++
		p.Index[i] = j
	}
	return p
}
