package autodiff

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"neusight/internal/mat"
)

// numericalGrad perturbs each element of the leaf x and measures the change
// in the scalar produced by f, giving a finite-difference gradient to compare
// against the analytic one.
func numericalGrad(t *testing.T, x *mat.Matrix, f func(*Value) *Value) *mat.Matrix {
	t.Helper()
	const h = 1e-6
	g := mat.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		plus := f(NewVariable(x.Clone())).Data.Data[0]
		x.Data[i] = orig - h
		minus := f(NewVariable(x.Clone())).Data.Data[0]
		x.Data[i] = orig
		g.Data[i] = (plus - minus) / (2 * h)
	}
	return g
}

// checkGrad verifies the analytic gradient of scalar-valued f at x.
func checkGrad(t *testing.T, name string, x *mat.Matrix, f func(*Value) *Value) {
	t.Helper()
	leaf := NewVariable(x.Clone())
	out := f(leaf)
	if out.Data.Rows != 1 || out.Data.Cols != 1 {
		t.Fatalf("%s: gradcheck requires scalar output, got %dx%d", name, out.Data.Rows, out.Data.Cols)
	}
	Backward(out)
	want := numericalGrad(t, x, f)
	for i := range want.Data {
		diff := math.Abs(leaf.Grad.Data[i] - want.Data[i])
		scale := math.Max(1, math.Abs(want.Data[i]))
		if diff/scale > 1e-4 {
			t.Fatalf("%s: grad[%d] = %v, numerical %v", name, i, leaf.Grad.Data[i], want.Data[i])
		}
	}
}

func randMat(seed int64, r, c int) *mat.Matrix {
	return mat.RandN(rand.New(rand.NewSource(seed)), r, c, 1)
}

func TestGradAdd(t *testing.T) {
	b := NewConstant(randMat(1, 3, 4))
	checkGrad(t, "Add", randMat(2, 3, 4), func(x *Value) *Value {
		return MeanAll(Add(x, b))
	})
}

func TestGradSubBothSides(t *testing.T) {
	a := randMat(3, 2, 3)
	b := randMat(4, 2, 3)
	// Gradient wrt the subtrahend must be negative.
	leafB := NewVariable(b.Clone())
	out := SumAll(Sub(NewConstant(a), leafB))
	Backward(out)
	for i, g := range leafB.Grad.Data {
		if g != -1 {
			t.Fatalf("grad[%d] = %v, want -1", i, g)
		}
	}
}

func TestGradMul(t *testing.T) {
	b := NewConstant(randMat(5, 3, 3))
	checkGrad(t, "Mul", randMat(6, 3, 3), func(x *Value) *Value {
		return MeanAll(Mul(x, b))
	})
}

func TestGradDivNumerator(t *testing.T) {
	b := randMat(7, 3, 3).Apply(func(v float64) float64 { return v + 3 }) // keep away from 0
	bc := NewConstant(b)
	checkGrad(t, "Div-num", randMat(8, 3, 3), func(x *Value) *Value {
		return MeanAll(Div(x, bc))
	})
}

func TestGradDivDenominator(t *testing.T) {
	a := NewConstant(randMat(9, 3, 3))
	x0 := randMat(10, 3, 3).Apply(func(v float64) float64 { return v + 4 })
	checkGrad(t, "Div-den", x0, func(x *Value) *Value {
		return MeanAll(Div(a, x))
	})
}

func TestGradMatMulBoth(t *testing.T) {
	b := NewConstant(randMat(11, 4, 5))
	checkGrad(t, "MatMul-lhs", randMat(12, 3, 4), func(x *Value) *Value {
		return MeanAll(MatMul(x, b))
	})
	a := NewConstant(randMat(13, 3, 4))
	checkGrad(t, "MatMul-rhs", randMat(14, 4, 5), func(x *Value) *Value {
		return MeanAll(MatMul(a, x))
	})
}

func TestGradAddRowVector(t *testing.T) {
	a := NewConstant(randMat(15, 6, 3))
	checkGrad(t, "AddRowVector-bias", randMat(16, 1, 3), func(x *Value) *Value {
		return MeanAll(AddRowVector(a, x))
	})
}

func TestGradUnaryOps(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Value) *Value
		init func(float64) float64
	}{
		{"ReLU", ReLU, func(v float64) float64 { return v + 0.05 }}, // avoid kink at 0
		{"Sigmoid", Sigmoid, nil},
		{"Tanh", Tanh, nil},
		{"GELU", GELU, nil},
		{"Abs", Abs, func(v float64) float64 { return v + 2 }}, // keep positive, away from kink
	}
	for i, tc := range cases {
		x := randMat(int64(20+i), 3, 3)
		if tc.init != nil {
			x = x.Apply(tc.init)
		}
		fn := tc.fn
		checkGrad(t, tc.name, x, func(v *Value) *Value { return MeanAll(fn(v)) })
	}
}

func TestGradClampMin(t *testing.T) {
	x := mat.FromRows([][]float64{{-1, 0.5, 2}})
	leaf := NewVariable(x)
	out := SumAll(ClampMin(leaf, 0.1))
	Backward(out)
	want := []float64{0, 1, 1}
	for i, w := range want {
		if leaf.Grad.Data[i] != w {
			t.Fatalf("ClampMin grad[%d] = %v, want %v", i, leaf.Grad.Data[i], w)
		}
	}
	if out.Data.Data[0] != 0.1+0.5+2 {
		t.Fatalf("ClampMin forward = %v", out.Data.Data[0])
	}
}

func TestGradSoftmaxRows(t *testing.T) {
	// Weight the softmax output so the gradient is non-trivial.
	w := NewConstant(randMat(30, 2, 5))
	checkGrad(t, "SoftmaxRows", randMat(31, 2, 5), func(x *Value) *Value {
		return MeanAll(Mul(SoftmaxRows(x), w))
	})
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := mat.RandN(r, 1+r.Intn(5), 2+r.Intn(8), 3)
		y := SoftmaxRows(NewConstant(x)).Data
		for i := 0; i < y.Rows; i++ {
			s := 0.0
			for _, v := range y.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGradLayerNorm(t *testing.T) {
	gain := NewConstant(randMat(40, 1, 4).Apply(func(v float64) float64 { return v + 2 }))
	bias := NewConstant(randMat(41, 1, 4))
	checkGrad(t, "LayerNorm-input", randMat(42, 3, 4), func(x *Value) *Value {
		return MeanAll(LayerNormRows(x, gain, bias, 1e-5))
	})
	input := NewConstant(randMat(43, 3, 4))
	checkGrad(t, "LayerNorm-gain", randMat(44, 1, 4), func(g *Value) *Value {
		return MeanAll(LayerNormRows(input, g, bias, 1e-5))
	})
	checkGrad(t, "LayerNorm-bias", randMat(45, 1, 4), func(b *Value) *Value {
		return MeanAll(LayerNormRows(input, gain, b, 1e-5))
	})
}

func TestLayerNormStats(t *testing.T) {
	gain := NewConstant(mat.FromRows([][]float64{{1, 1, 1, 1, 1, 1}}))
	bias := NewConstant(mat.New(1, 6))
	x := randMat(50, 4, 6)
	y := LayerNormRows(NewConstant(x), gain, bias, 1e-8).Data
	for i := 0; i < y.Rows; i++ {
		m, v := 0.0, 0.0
		for _, e := range y.Row(i) {
			m += e
		}
		m /= 6
		for _, e := range y.Row(i) {
			v += (e - m) * (e - m)
		}
		v /= 6
		if math.Abs(m) > 1e-8 || math.Abs(v-1) > 1e-4 {
			t.Fatalf("row %d normalized to mean=%v var=%v", i, m, v)
		}
	}
}

func TestGradScaleAndAddScalar(t *testing.T) {
	checkGrad(t, "Scale", randMat(60, 3, 3), func(x *Value) *Value {
		return MeanAll(Scale(x, -2.5))
	})
	checkGrad(t, "AddScalar", randMat(61, 3, 3), func(x *Value) *Value {
		return MeanAll(AddScalar(x, 7))
	})
}

// TestGradComposite runs a deep composite expression resembling the NeuSight
// latency formula: pred = c * waves / clamp(sigmoid(a) - sigmoid(b)/waves).
func TestGradComposite(t *testing.T) {
	waves := NewConstant(mat.FromRows([][]float64{{2}, {5}, {9}}))
	c := NewConstant(mat.FromRows([][]float64{{1.5}, {0.7}, {3.2}}))
	checkGrad(t, "latency-formula", randMat(62, 3, 2), func(x *Value) *Value {
		// columns play the role of the two MLP heads
		alphaCol := MatMul(x, NewConstant(mat.FromRows([][]float64{{1}, {0}})))
		betaCol := MatMul(x, NewConstant(mat.FromRows([][]float64{{0}, {1}})))
		util := Sub(Sigmoid(alphaCol), Div(Sigmoid(betaCol), waves))
		util = ClampMin(util, 1e-3)
		pred := Div(Mul(c, waves), util)
		return MeanAll(pred)
	})
}

func TestGradReusedNode(t *testing.T) {
	// y = x*x + x : gradient must accumulate both paths (2x + 1).
	x := mat.FromRows([][]float64{{3}})
	leaf := NewVariable(x)
	out := SumAll(Add(Mul(leaf, leaf), leaf))
	Backward(out)
	if got := leaf.Grad.Data[0]; math.Abs(got-7) > 1e-12 {
		t.Fatalf("grad = %v, want 7 (2*3+1)", got)
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	c := NewConstant(randMat(70, 2, 2))
	v := NewVariable(randMat(71, 2, 2))
	out := MeanAll(Mul(c, v))
	Backward(out)
	if c.Grad != nil {
		t.Fatal("constant must not allocate a gradient")
	}
}

func TestBackwardOnConstantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Backward(NewConstant(randMat(72, 1, 1)))
}

func TestZeroGrad(t *testing.T) {
	v := NewVariable(randMat(73, 2, 2))
	out := MeanAll(v)
	Backward(out)
	v.ZeroGrad()
	for _, g := range v.Grad.Data {
		if g != 0 {
			t.Fatal("ZeroGrad left nonzero gradient")
		}
	}
}
