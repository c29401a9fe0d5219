package nn

import (
	"fmt"
	"math"

	"neusight/internal/mat"
)

// CompiledMLP is the inference-only form of a trained MLP: a snapshot of the
// layer weights as plain matrices plus a forward pass that runs with zero
// autodiff overhead — no graph nodes, no gradient buffers, no backward
// closures — and zero steady-state heap allocations (scratch comes from a
// sync.Pool-backed arena, bias + activation fuse into one pass).
//
// Compile deep-copies the weights, so a CompiledMLP is immutable: training
// the source MLP afterwards does not disturb in-flight inference, and one
// CompiledMLP may serve any number of goroutines concurrently. Callers that
// retrain must Compile again to pick up new weights.
//
// The forward pass is bit-identical to MLP.Forward: the matmul accumulates
// in the same k-order and the scalar activations use the same formulas as
// the autodiff ops, so compiling never changes a prediction.
type CompiledMLP struct {
	Cfg MLPConfig

	ws  []*mat.Matrix // layer i weights, in_i x out_i
	bs  []*mat.Matrix // layer i bias, 1 x out_i
	act func(float64) float64

	arena mat.Arena // hidden-activation scratch, recycled across calls
}

// Compile snapshots m into its inference-only form.
func Compile(m *MLP) *CompiledMLP {
	if len(m.layers) == 0 {
		panic("nn: Compile on an empty MLP")
	}
	c := &CompiledMLP{Cfg: m.Cfg, act: ActFunc(m.Cfg.Activation)}
	for _, l := range m.layers {
		c.ws = append(c.ws, l.W.Data.Clone())
		c.bs = append(c.bs, l.B.Data.Clone())
	}
	return c
}

// ActFunc returns the scalar implementation of a. The formulas are exactly
// those of the corresponding autodiff ops (internal/autodiff), so compiled
// inference reproduces training-time numerics bit for bit.
func ActFunc(a Activation) func(float64) float64 {
	switch a {
	case ActReLU:
		return func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		}
	case ActTanh:
		return math.Tanh
	case ActGELU:
		const c = 0.7978845608028654 // sqrt(2/pi)
		return func(x float64) float64 {
			return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
		}
	case ActSigmoid:
		return SigmoidScalar
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// SigmoidScalar is the scalar logistic function, matching autodiff.Sigmoid.
func SigmoidScalar(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward maps a (batch x in) matrix to a freshly allocated (batch x out)
// matrix. For an allocation-free pass, use ForwardInto with a reused dst.
func (c *CompiledMLP) Forward(x *mat.Matrix) *mat.Matrix {
	return c.ForwardInto(mat.New(x.Rows, c.Cfg.Out), x)
}

// ForwardInto runs the forward pass into dst, which must be batch x out and
// must not alias x. Hidden activations ping-pong between two arena buffers,
// so a steady-state call allocates nothing. Returns dst.
func (c *CompiledMLP) ForwardInto(dst, x *mat.Matrix) *mat.Matrix {
	if x.Cols != c.Cfg.In {
		panic(fmt.Sprintf("nn: CompiledMLP input has %d features, want %d", x.Cols, c.Cfg.In))
	}
	if dst.Rows != x.Rows || dst.Cols != c.Cfg.Out {
		panic(fmt.Sprintf("nn: CompiledMLP dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, c.Cfg.Out))
	}
	h := x
	var scratch *mat.Matrix
	last := len(c.ws) - 1
	for i, w := range c.ws {
		if i == last {
			// Output layer: matmul into dst, bias added in place, no
			// activation (heads are consumed raw, e.g. by sigmoid bounding
			// in the utilization law).
			mat.MatMulInto(dst, h, w)
			mat.AddRowVectorInto(dst, dst, c.bs[i])
			break
		}
		next := c.arena.Get(h.Rows, w.Cols)
		mat.MatMulInto(next, h, w)
		mat.AddRowVectorApplyInto(next, next, c.bs[i], c.act)
		if scratch != nil {
			c.arena.Put(scratch)
		}
		scratch = next
		h = next
	}
	if scratch != nil {
		c.arena.Put(scratch)
	}
	return dst
}

// ForwardRow runs a single-sample forward pass: in has length Cfg.In, and
// the heads are written into out (allocated when nil or mis-sized) and
// returned. This is the hot path of a single cache-miss prediction.
func (c *CompiledMLP) ForwardRow(in, out []float64) []float64 {
	if out == nil || len(out) != c.Cfg.Out {
		out = make([]float64, c.Cfg.Out)
	}
	x := mat.Matrix{Rows: 1, Cols: len(in), Data: in}
	dst := mat.Matrix{Rows: 1, Cols: len(out), Data: out}
	c.ForwardInto(&dst, &x)
	return out
}
