package kernels

import "fmt"

// NewBMM builds a batched matrix multiplication: b batches of (m x k)@(k x n).
func NewBMM(b, m, k, n int) Kernel {
	mustPositive("BMM", b, m, k, n)
	return Kernel{Op: OpBMM, B: b, M: m, K: k, N: n}
}

// NewLinear builds a fully-connected layer: rows samples through in -> out.
func NewLinear(rows, in, out int) Kernel {
	mustPositive("Linear", rows, in, out)
	return Kernel{Op: OpLinear, B: 1, M: rows, K: in, N: out}
}

// NewElementwise builds an elementwise op over rows x cols elements.
func NewElementwise(op Op, rows, cols int) Kernel {
	if Categorize(op) != CatElementwise {
		panic(fmt.Sprintf("kernels: %v is not elementwise", op))
	}
	mustPositive("Elementwise", rows, cols)
	return Kernel{Op: op, B: rows, M: cols}
}

// NewSoftmax builds a softmax over rows independent vectors of length cols.
func NewSoftmax(rows, cols int) Kernel {
	mustPositive("Softmax", rows, cols)
	return Kernel{Op: OpSoftmax, B: rows, M: cols}
}

// NewLayerNorm builds a layer normalization over rows vectors of length cols.
func NewLayerNorm(rows, cols int) Kernel {
	mustPositive("LayerNorm", rows, cols)
	return Kernel{Op: OpLayerNorm, B: rows, M: cols}
}

// NewEmbedding builds a table gather of tokens rows of width hidden from a
// vocab-row table.
func NewEmbedding(tokens, hidden, vocab int) Kernel {
	mustPositive("Embedding", tokens, hidden, vocab)
	return Kernel{Op: OpEmbedding, B: tokens, M: hidden, K: vocab}
}

// WithDType returns a copy of k at the given precision.
func (k Kernel) WithDType(d DType) Kernel {
	k.DType = d
	return k
}

// Fuse merges k with the following ops per the paper's fusion rule
// (Section 4.4): FLOPs accumulate, intermediate tensors' memory traffic is
// discarded, and tiling metadata comes from the first operator. The fused
// kernel keeps k's op type so it routes to k's predictor.
func Fuse(first Kernel, rest ...Kernel) Kernel {
	if len(rest) == 0 {
		return first
	}
	fused := first
	fused.Fused = true
	fused.FusedFLOPs = first.FLOPs()
	fused.FusedBytes = first.MemBytes()
	fused.FusedOps = []Op{}
	s := first.DType.Bytes()
	for _, r := range rest {
		fused.FusedFLOPs += r.FLOPs()
		// The intermediate produced by the previous op and consumed by r
		// stays on chip: subtract one tensor write and one read.
		inter := s * first.elementsForFusion()
		fused.FusedBytes += r.MemBytes() - 2*inter
		if fused.FusedBytes < s*first.elementsForFusion() {
			fused.FusedBytes = s * first.elementsForFusion()
		}
		fused.FusedOps = append(fused.FusedOps, r.Op)
	}
	return fused
}

// elementsForFusion is the intermediate tensor size flowing between fused
// ops: the output elements of the first kernel.
func (k Kernel) elementsForFusion() float64 {
	switch k.Op {
	case OpBMM:
		return float64(k.B) * float64(k.M) * float64(k.N)
	case OpLinear:
		return float64(k.M) * float64(k.N)
	default:
		return k.elements()
	}
}

// mustPositive formats its panic from a copy of dims: handing dims itself to
// fmt would make every caller's variadic slice escape, one allocation a kernel.
func mustPositive(op string, dims ...int) {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("kernels: %s requires positive dimensions, got %v", op, append([]int(nil), dims...)))
		}
	}
}
