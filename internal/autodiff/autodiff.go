// Package autodiff implements a small reverse-mode automatic-differentiation
// engine over dense matrices. It is the training substrate for the NeuSight
// utilization predictors: the per-tile latency equations (paper Eq. 5-8) are
// expressed as autodiff ops so the SMAPE loss backpropagates end-to-end
// through the performance laws into the MLP weights.
//
// A Value wraps a matrix plus an optional gradient. Operations build an
// implicit DAG; Backward performs a topological sweep accumulating gradients
// into every reachable Value created with requiresGrad set.
package autodiff

import (
	"fmt"
	"math"

	"neusight/internal/mat"
)

// Value is a node in the autodiff graph: a matrix, its gradient, and the
// closure that propagates the gradient to its parents.
type Value struct {
	Data *mat.Matrix
	Grad *mat.Matrix

	requiresGrad bool
	parents      []*Value
	backward     func()
}

// NewVariable wraps m as a trainable leaf (gradient is accumulated).
func NewVariable(m *mat.Matrix) *Value {
	return &Value{Data: m, Grad: mat.New(m.Rows, m.Cols), requiresGrad: true}
}

// NewConstant wraps m as a non-trainable leaf.
func NewConstant(m *mat.Matrix) *Value {
	return &Value{Data: m}
}

// RequiresGrad reports whether gradients flow into this Value.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// newResult builds an interior node. The node requires grad iff any parent
// does; backward is only invoked in that case.
func newResult(data *mat.Matrix, parents []*Value, backward func()) *Value {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	v := &Value{Data: data, parents: parents, requiresGrad: rg}
	if rg {
		v.Grad = mat.New(data.Rows, data.Cols)
		v.backward = backward
	}
	return v
}

// Backward seeds v's gradient with ones and propagates through the graph in
// reverse topological order. v is typically a 1x1 loss.
func Backward(v *Value) {
	if !v.requiresGrad {
		panic("autodiff: Backward on a Value that does not require grad")
	}
	order := topoSort(v)
	v.Grad.Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil {
			n.backward()
		}
	}
}

func topoSort(root *Value) []*Value {
	seen := make(map[*Value]bool)
	var order []*Value
	var visit func(*Value)
	visit = func(n *Value) {
		if seen[n] || !n.requiresGrad {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

func shapeCheck(a, b *Value, op string) {
	if !a.Data.SameShape(b.Data) {
		panic(fmt.Sprintf("autodiff: %s shape mismatch %dx%d vs %dx%d",
			op, a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols))
	}
}

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	shapeCheck(a, b, "Add")
	out := a.Data.Add(b.Data)
	var res *Value
	res = newResult(out, []*Value{a, b}, func() {
		if a.requiresGrad {
			a.Grad.AddInPlace(res.Grad)
		}
		if b.requiresGrad {
			b.Grad.AddInPlace(res.Grad)
		}
	})
	return res
}

// Sub returns a - b (same shape).
func Sub(a, b *Value) *Value {
	shapeCheck(a, b, "Sub")
	out := a.Data.Sub(b.Data)
	var res *Value
	res = newResult(out, []*Value{a, b}, func() {
		if a.requiresGrad {
			a.Grad.AddInPlace(res.Grad)
		}
		if b.requiresGrad {
			b.Grad.AddInPlace(res.Grad.Scale(-1))
		}
	})
	return res
}

// Mul returns the elementwise product a * b.
func Mul(a, b *Value) *Value {
	shapeCheck(a, b, "Mul")
	out := a.Data.Mul(b.Data)
	var res *Value
	res = newResult(out, []*Value{a, b}, func() {
		if a.requiresGrad {
			a.Grad.AddInPlace(res.Grad.Mul(b.Data))
		}
		if b.requiresGrad {
			b.Grad.AddInPlace(res.Grad.Mul(a.Data))
		}
	})
	return res
}

// Div returns the elementwise quotient a / b.
func Div(a, b *Value) *Value {
	shapeCheck(a, b, "Div")
	out := a.Data.Div(b.Data)
	var res *Value
	res = newResult(out, []*Value{a, b}, func() {
		if a.requiresGrad {
			a.Grad.AddInPlace(res.Grad.Div(b.Data))
		}
		if b.requiresGrad {
			// d(a/b)/db = -a / b².
			g := res.Grad.Mul(out).Div(b.Data).Scale(-1)
			b.Grad.AddInPlace(g)
		}
	})
	return res
}

// Scale returns s * a for scalar s.
func Scale(a *Value, s float64) *Value {
	out := a.Data.Scale(s)
	var res *Value
	res = newResult(out, []*Value{a}, func() {
		a.Grad.AddInPlace(res.Grad.Scale(s))
	})
	return res
}

// AddScalar returns a + s elementwise.
func AddScalar(a *Value, s float64) *Value {
	out := a.Data.AddScalar(s)
	var res *Value
	res = newResult(out, []*Value{a}, func() {
		a.Grad.AddInPlace(res.Grad)
	})
	return res
}

// MatMul returns a @ b.
func MatMul(a, b *Value) *Value {
	out := a.Data.MatMul(b.Data)
	var res *Value
	res = newResult(out, []*Value{a, b}, func() {
		if a.requiresGrad {
			a.Grad.AddInPlace(res.Grad.MatMul(b.Data.T()))
		}
		if b.requiresGrad {
			b.Grad.AddInPlace(a.Data.T().MatMul(res.Grad))
		}
	})
	return res
}

// AddRowVector broadcasts the 1 x Cols bias b over every row of a.
func AddRowVector(a, b *Value) *Value {
	out := a.Data.AddRowVector(b.Data)
	var res *Value
	res = newResult(out, []*Value{a, b}, func() {
		if a.requiresGrad {
			a.Grad.AddInPlace(res.Grad)
		}
		if b.requiresGrad {
			b.Grad.AddInPlace(res.Grad.ColSums())
		}
	})
	return res
}

// unary builds an elementwise op with derivative df expressed in terms of
// the input x and output y.
func unary(a *Value, f func(float64) float64, df func(x, y float64) float64) *Value {
	out := a.Data.Apply(f)
	var res *Value
	res = newResult(out, []*Value{a}, func() {
		g := mat.New(out.Rows, out.Cols)
		for i := range g.Data {
			g.Data[i] = res.Grad.Data[i] * df(a.Data.Data[i], out.Data[i])
		}
		a.Grad.AddInPlace(g)
	})
	return res
}

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	return unary(a,
		func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Sigmoid returns 1/(1+e^-a) elementwise.
func Sigmoid(a *Value) *Value {
	return unary(a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(_, y float64) float64 { return y * (1 - y) })
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Value) *Value {
	return unary(a, math.Tanh, func(_, y float64) float64 { return 1 - y*y })
}

// GELU returns the tanh-approximated Gaussian error linear unit.
func GELU(a *Value) *Value {
	const c = 0.7978845608028654 // sqrt(2/pi)
	f := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	df := func(x, _ float64) float64 {
		t := math.Tanh(c * (x + 0.044715*x*x*x))
		return 0.5*(1+t) + 0.5*x*(1-t*t)*c*(1+3*0.044715*x*x)
	}
	return unary(a, f, df)
}

// Abs returns |a| elementwise; the derivative at 0 is taken as 0.
func Abs(a *Value) *Value {
	return unary(a, math.Abs, func(x, _ float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		default:
			return 0
		}
	})
}

// ClampMin returns max(a, lo) elementwise. Where the clamp is active the
// gradient is zero, keeping the utilization floor (paper Section 4.2) from
// producing negative latencies during training.
func ClampMin(a *Value, lo float64) *Value {
	return unary(a,
		func(x float64) float64 { return math.Max(x, lo) },
		func(x, _ float64) float64 {
			if x > lo {
				return 1
			}
			return 0
		})
}

// SoftmaxRows applies a numerically stable softmax independently per row.
func SoftmaxRows(a *Value) *Value {
	out := mat.New(a.Data.Rows, a.Data.Cols)
	for i := 0; i < a.Data.Rows; i++ {
		row := a.Data.Row(i)
		o := out.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			o[j] = math.Exp(v - mx)
			s += o[j]
		}
		for j := range o {
			o[j] /= s
		}
	}
	var res *Value
	res = newResult(out, []*Value{a}, func() {
		g := mat.New(out.Rows, out.Cols)
		for i := 0; i < out.Rows; i++ {
			y := out.Row(i)
			gy := res.Grad.Row(i)
			dot := 0.0
			for j := range y {
				dot += y[j] * gy[j]
			}
			gr := g.Row(i)
			for j := range y {
				gr[j] = y[j] * (gy[j] - dot)
			}
		}
		a.Grad.AddInPlace(g)
	})
	return res
}

// LayerNormRows normalizes each row to zero mean and unit variance, then
// applies the learned per-column gain and bias (both 1 x Cols).
func LayerNormRows(a, gain, bias *Value, eps float64) *Value {
	rows, cols := a.Data.Rows, a.Data.Cols
	out := mat.New(rows, cols)
	norm := mat.New(rows, cols) // pre-gain normalized values, kept for backward
	invStd := make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := a.Data.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(cols)
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float64(cols)
		inv := 1 / math.Sqrt(variance+eps)
		invStd[i] = inv
		n := norm.Row(i)
		o := out.Row(i)
		for j, v := range row {
			n[j] = (v - mean) * inv
			o[j] = n[j]*gain.Data.Data[j] + bias.Data.Data[j]
		}
	}
	var res *Value
	res = newResult(out, []*Value{a, gain, bias}, func() {
		for i := 0; i < rows; i++ {
			gy := res.Grad.Row(i)
			n := norm.Row(i)
			if gain.requiresGrad {
				gg := gain.Grad.Data
				for j := range gy {
					gg[j] += gy[j] * n[j]
				}
			}
			if bias.requiresGrad {
				bg := bias.Grad.Data
				for j := range gy {
					bg[j] += gy[j]
				}
			}
			if a.requiresGrad {
				// dL/dx through the normalization.
				c := float64(cols)
				sum1, sum2 := 0.0, 0.0
				for j := range gy {
					h := gy[j] * gain.Data.Data[j]
					sum1 += h
					sum2 += h * n[j]
				}
				ag := a.Grad.Row(i)
				for j := range gy {
					h := gy[j] * gain.Data.Data[j]
					ag[j] += invStd[i] * (h - sum1/c - n[j]*sum2/c)
				}
			}
		}
	})
	return res
}

// MeanAll reduces to a 1x1 mean of every element.
func MeanAll(a *Value) *Value {
	out := mat.FromSlice(1, 1, []float64{a.Data.Mean()})
	n := float64(len(a.Data.Data))
	var res *Value
	res = newResult(out, []*Value{a}, func() {
		g := res.Grad.Data[0] / n
		gm := mat.New(a.Data.Rows, a.Data.Cols)
		gm.Fill(g)
		a.Grad.AddInPlace(gm)
	})
	return res
}

// SumAll reduces to a 1x1 sum of every element.
func SumAll(a *Value) *Value {
	out := mat.FromSlice(1, 1, []float64{a.Data.Sum()})
	var res *Value
	res = newResult(out, []*Value{a}, func() {
		g := res.Grad.Data[0]
		gm := mat.New(a.Data.Rows, a.Data.Cols)
		gm.Fill(g)
		a.Grad.AddInPlace(gm)
	})
	return res
}
