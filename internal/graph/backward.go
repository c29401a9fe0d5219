package graph

import "neusight/internal/kernels"

// Backward derives the training graph for a forward graph: the forward
// kernels followed by the backward kernels of each differentiable node in
// reverse order. The per-iteration training latency the paper reports is
// "a single forward and backward pass" (Section 6.1), so no optimizer-step
// kernels are emitted.
//
// Backward cost rules follow standard framework behavior:
//
//	Linear (X@W):  two GEMMs — dX = dY@Wᵀ and dW = Xᵀ@dY — each with the
//	               forward GEMM's FLOP count.
//	BMM (A@B):     two BMMs — dA = dY@Bᵀ, dB = Aᵀ@dY.
//	Elementwise:   one elementwise kernel of the same size.
//	Softmax:       one softmax-shaped kernel (y*(g - Σyg) is the same
//	               traffic/flop class as the forward).
//	LayerNorm:     one layernorm-shaped kernel.
//	Embedding:     one scatter-add gather of the same size (memory-bound).
//	Dropout/Transpose: one kernel of the same size.
//
// Network kernels (collectives) are skipped; distributed transforms insert
// their own gradient collectives.
//
// The training graph shares the forward graph's nodes instead of copying
// them — nodes are never modified once added — and fwd is left as it was.
func Backward(fwd *Graph) *Graph {
	out := New(fwd.Name + "/train")
	extra := 0
	for _, n := range fwd.Nodes {
		_, _, c := backwardKernels(&n.Kernel)
		extra += c
	}
	out.Nodes = append(make([]*Node, 0, len(fwd.Nodes)+extra), fwd.Nodes...)
	out.Reserve(extra, extra)
	// Backward kernels chain sequentially after the forward pass in
	// reverse node order.
	prev := len(fwd.Nodes) - 1
	for i := prev; i >= 0; i-- {
		a, b, c := backwardKernels(&fwd.Nodes[i].Kernel)
		if c > 0 {
			prev = out.Add(a, prev)
		}
		if c > 1 {
			prev = out.Add(b, prev)
		}
	}
	return out
}

// backwardKernels returns the n (0 to 2) kernels a framework launches to
// backpropagate through k, in launch order.
func backwardKernels(k *kernels.Kernel) (a, b kernels.Kernel, n int) {
	d := k.DType
	switch k.Op {
	case kernels.OpLinear:
		// dX: (M x N) @ (N x K); dW: (K x M) @ (M x N).
		return kernels.NewLinear(k.M, k.N, k.K).WithDType(d),
			kernels.NewLinear(k.K, k.M, k.N).WithDType(d), 2
	case kernels.OpBMM:
		return kernels.NewBMM(k.B, k.M, k.N, k.K).WithDType(d),
			kernels.NewBMM(k.B, k.K, k.M, k.N).WithDType(d), 2
	case kernels.OpSoftmax:
		return kernels.NewSoftmax(k.B, k.M).WithDType(d), b, 1
	case kernels.OpLayerNorm:
		return kernels.NewLayerNorm(k.B, k.M).WithDType(d), b, 1
	case kernels.OpConv2D:
		// dX: the transposed convolution (M x N)@(N x K); dW: (K x M)@(M x N).
		// Both stay implicit GEMMs of the forward's FLOP count.
		return kernels.Kernel{Op: kernels.OpConv2D, B: 1, M: k.M, K: k.N, N: k.K, DType: d, ConvInputElems: float64(k.M) * float64(k.N)},
			kernels.Kernel{Op: kernels.OpConv2D, B: 1, M: k.K, K: k.M, N: k.N, DType: d, ConvInputElems: float64(k.K) * float64(k.M)}, 2
	case kernels.OpEmbedding:
		return kernels.Kernel{Op: kernels.OpEmbedding, B: k.B, M: k.M, K: k.K, DType: d}, b, 1
	case kernels.OpAllReduce, kernels.OpSendRecv:
		return a, b, 0
	default:
		// Elementwise, dropout, transpose and anything unlisted: one
		// kernel of the same size.
		return kernels.Kernel{Op: k.Op, B: k.B, M: k.M, DType: d}, b, 1
	}
}
