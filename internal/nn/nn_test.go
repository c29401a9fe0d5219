package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	ad "neusight/internal/autodiff"
	"neusight/internal/loss"
	"neusight/internal/mat"
	"neusight/internal/opt"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 7)
	x := ad.NewConstant(mat.RandN(rng, 3, 4, 1))
	y := l.Forward(x)
	if y.Data.Rows != 3 || y.Data.Cols != 7 {
		t.Fatalf("Linear output %dx%d, want 3x7", y.Data.Rows, y.Data.Cols)
	}
	if len(l.Params()) != 2 {
		t.Fatalf("Linear params = %d, want 2", len(l.Params()))
	}
}

func TestMLPShapesAndParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, MLPConfig{In: 5, Hidden: 16, Out: 2, Layers: 3, Activation: ActReLU})
	x := ad.NewConstant(mat.RandN(rng, 9, 5, 1))
	y := m.Forward(x)
	if y.Data.Rows != 9 || y.Data.Cols != 2 {
		t.Fatalf("MLP output %dx%d, want 9x2", y.Data.Rows, y.Data.Cols)
	}
	// 5*16+16 + 2*(16*16+16) + 16*2+2
	want := 5*16 + 16 + 2*(16*16+16) + 16*2 + 2
	got := 0
	for _, p := range m.Params() {
		got += len(p.Data.Data)
	}
	if got != want {
		t.Fatalf("MLP has %d trainable scalars, want %d", got, want)
	}
}

// TestMLPLearnsQuadratic trains a small MLP on y = x0² + x1 and checks the
// loss drops by >10x — exercising forward, backward, and AdamW end to end.
func TestMLPLearnsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, MLPConfig{In: 2, Hidden: 32, Out: 1, Layers: 2, Activation: ActTanh})
	optim := opt.NewAdamW(m.Params(), opt.AdamWConfig{LR: 1e-2})

	xs := mat.RandUniform(rng, 256, 2, -1, 1)
	ys := mat.New(256, 1)
	for i := 0; i < 256; i++ {
		ys.Data[i] = xs.At(i, 0)*xs.At(i, 0) + xs.At(i, 1)
	}
	xv, yv := ad.NewConstant(xs), ad.NewConstant(ys)

	first := loss.MSE(m.Forward(xv), yv).Data.Data[0]
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		l := loss.MSE(m.Forward(xv), yv)
		ad.Backward(l)
		optim.Step()
		last = l.Data.Data[0]
	}
	if last > first/10 {
		t.Fatalf("loss did not drop: first %v, last %v", first, last)
	}
}

func TestMLPJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, MLPConfig{In: 3, Hidden: 8, Out: 2, Layers: 2, Activation: ActReLU})
	x := ad.NewConstant(mat.RandN(rng, 4, 3, 1))
	want := m.Forward(x).Data

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MLP
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got := back.Forward(x).Data
	if !mat.Equal(got, want, 1e-12) {
		t.Fatal("deserialized MLP output differs from original")
	}
}

func TestMLPUnmarshalRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, MLPConfig{In: 3, Hidden: 8, Out: 1, Layers: 2, Activation: ActReLU})
	data, _ := json.Marshal(m)
	var st map[string]any
	_ = json.Unmarshal(data, &st)
	st["weights"] = st["weights"].([]any)[:2] // drop tensors
	bad, _ := json.Marshal(st)
	var back MLP
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Fatal("expected error on truncated weights")
	}
}

func TestActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, a := range []Activation{ActReLU, ActTanh, ActGELU, ActSigmoid} {
		m := NewMLP(rng, MLPConfig{In: 2, Hidden: 4, Out: 1, Layers: 1, Activation: a})
		y := m.Forward(ad.NewConstant(mat.RandN(rng, 2, 2, 1)))
		for _, v := range y.Data.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("activation %d produced %v", a, v)
			}
		}
	}
}

func TestTransformerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTransformer(rng, TransformerConfig{Features: 6, DModel: 16, Heads: 4, Layers: 2, FFN: 32})
	x := ad.NewConstant(mat.RandN(rng, 5, 6, 1))
	y := tr.Forward(x)
	if y.Data.Rows != 5 || y.Data.Cols != 1 {
		t.Fatalf("Transformer output %dx%d, want 5x1", y.Data.Rows, y.Data.Cols)
	}
}

// TestTransformerTrains checks the transformer regressor can fit a simple
// function, validating gradient flow through attention and layernorm.
func TestTransformerTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := NewTransformer(rng, TransformerConfig{Features: 3, DModel: 8, Heads: 2, Layers: 1, FFN: 16})
	optim := opt.NewAdamW(tr.Params(), opt.AdamWConfig{LR: 3e-3})
	xs := mat.RandUniform(rng, 32, 3, -1, 1)
	ys := mat.New(32, 1)
	for i := 0; i < 32; i++ {
		ys.Data[i] = xs.At(i, 0) + 0.5*xs.At(i, 1)*xs.At(i, 2)
	}
	xv, yv := ad.NewConstant(xs), ad.NewConstant(ys)
	first := loss.MSE(tr.Forward(xv), yv).Data.Data[0]
	var last float64
	for epoch := 0; epoch < 60; epoch++ {
		l := loss.MSE(tr.Forward(xv), yv)
		ad.Backward(l)
		optim.Step()
		last = l.Data.Data[0]
	}
	if last > first*0.5 {
		t.Fatalf("transformer loss did not drop: first %v, last %v", first, last)
	}
}

func TestCosineDecayEndpoints(t *testing.T) {
	if got := opt.CosineDecay(1.0, 0.1, 0, 100); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("t=0 lr = %v, want 1.0", got)
	}
	if got := opt.CosineDecay(1.0, 0.1, 99, 100); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("t=end lr = %v, want 0.1", got)
	}
	mid := opt.CosineDecay(1.0, 0.1, 50, 101)
	if math.Abs(mid-0.55) > 1e-9 {
		t.Fatalf("midpoint lr = %v, want 0.55", mid)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	// minimize (w - 3)² with momentum SGD
	w := ad.NewVariable(mat.FromRows([][]float64{{0}}))
	target := ad.NewConstant(mat.FromRows([][]float64{{3}}))
	optim := opt.NewSGD([]*ad.Value{w}, 0.05, 0.9)
	for i := 0; i < 200; i++ {
		l := loss.MSE(w, target)
		ad.Backward(l)
		optim.Step()
	}
	if math.Abs(w.Data.Data[0]-3) > 1e-3 {
		t.Fatalf("w = %v, want 3", w.Data.Data[0])
	}
}
