package graph

import "neusight/internal/kernels"

// Fuse applies the operator-fusion pass of paper Section 4.4, emulating
// torch.compile's behavior on the patterns the paper calls out:
//
//   - a GEMM (Linear or BMM) folds a following elementwise epilogue —
//     activation functions and residual adds (the extra residual operand
//     becomes an epilogue input);
//   - consecutive elementwise kernels fuse into one;
//   - an elementwise kernel fuses with a following layer normalization
//     (the GPT-2 residual-add + layernorm example).
//
// A producer fuses only when it has exactly one consumer (otherwise its
// output must materialize anyway); the consumer may read additional inputs.
// Chains fuse greedily left to right. The fused kernel accumulates FLOPs
// and drops intermediate traffic via kernels.Fuse.
func Fuse(g *Graph) *Graph {
	cons := g.Consumers()
	out := New(g.Name + "/fused")
	out.Reserve(g.size()) // an upper bound: fusion only removes nodes and edges
	fusedInto := make([]int, len(g.Nodes))
	for i := range fusedInto {
		fusedInto[i] = -1 // not fused away
	}
	newID := make([]int, len(g.Nodes)) // of the nodes that survive
	var chain []kernels.Kernel
	var deps []int
	for _, head := range g.Nodes {
		if fusedInto[head.ID] >= 0 {
			continue
		}
		chain = chain[:0]
		deps = append(deps[:0], head.Deps...)
		cur := head
		for {
			c := cons[cur.ID]
			if len(c) != 1 {
				break
			}
			next := g.Nodes[c[0]]
			if fusedInto[next.ID] >= 0 || !fusable(cur.Kernel, next.Kernel) {
				break
			}
			chain = append(chain, next.Kernel)
			fusedInto[next.ID] = head.ID
			// Epilogue operands beyond the fused intermediate (e.g. the
			// residual tensor of a fused add) stay inputs of the fused node.
			for _, d := range next.Deps {
				if d != head.ID && fusedInto[d] != head.ID {
					deps = append(deps, d)
				}
			}
			cur = next
		}
		k := head.Kernel
		if len(chain) > 0 {
			k = kernels.Fuse(head.Kernel, chain...)
		}
		newID[head.ID] = out.Add(k, remapDeps(deps, newID, fusedInto)...)
	}
	return out
}

// fusable reports whether consumer b may fold into producer a as an
// epilogue.
func fusable(a, b kernels.Kernel) bool {
	ac, bc := a.Category(), b.Category()
	switch {
	case (ac == kernels.CatBMM || ac == kernels.CatLinear) && bc == kernels.CatElementwise:
		return true
	case ac == kernels.CatElementwise && bc == kernels.CatElementwise:
		return true
	case ac == kernels.CatElementwise && bc == kernels.CatLayerNorm:
		return true
	default:
		return false
	}
}

// remapDeps rewrites deps in place to the new IDs of the nodes that
// survive fusion, dropping repeats.
func remapDeps(deps []int, newID, fusedInto []int) []int {
	out := deps[:0]
next:
	for _, d := range deps {
		// Follow fusion chains to the surviving head.
		for fusedInto[d] >= 0 {
			d = fusedInto[d]
		}
		for _, seen := range out {
			if seen == newID[d] {
				continue next
			}
		}
		out = append(out, newID[d])
	}
	return out
}
