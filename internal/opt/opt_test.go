package opt

import (
	"math"
	"testing"

	ad "neusight/internal/autodiff"
	"neusight/internal/mat"
)

// quad sets up minimizing (w - target)² and returns the parameter plus a
// step function that computes gradients.
func quad(target float64) (*ad.Value, func()) {
	w := ad.NewVariable(mat.FromRows([][]float64{{0}}))
	tgt := ad.NewConstant(mat.FromRows([][]float64{{target}}))
	step := func() {
		d := ad.Sub(w, tgt)
		ad.Backward(ad.MeanAll(ad.Mul(d, d)))
	}
	return w, step
}

func TestSGDConverges(t *testing.T) {
	w, grad := quad(5)
	o := NewSGD([]*ad.Value{w}, 0.1, 0)
	for i := 0; i < 300; i++ {
		grad()
		o.Step()
	}
	if math.Abs(w.Data.Data[0]-5) > 1e-3 {
		t.Fatalf("w = %v, want 5", w.Data.Data[0])
	}
}

func TestSGDStepZeroesGradient(t *testing.T) {
	w, grad := quad(1)
	o := NewSGD([]*ad.Value{w}, 0.1, 0)
	grad()
	o.Step()
	for _, g := range w.Grad.Data {
		if g != 0 {
			t.Fatal("Step must zero gradients")
		}
	}
}

func TestAdamWConverges(t *testing.T) {
	w, grad := quad(-3)
	o := NewAdamW([]*ad.Value{w}, AdamWConfig{LR: 0.1})
	for i := 0; i < 500; i++ {
		grad()
		o.Step()
	}
	if math.Abs(w.Data.Data[0]-(-3)) > 1e-2 {
		t.Fatalf("w = %v, want -3", w.Data.Data[0])
	}
}

func TestAdamWFirstStepBiasCorrection(t *testing.T) {
	// With bias correction, the first AdamW step size is ~lr regardless of
	// gradient magnitude.
	for _, scale := range []float64{1e-4, 1.0, 1e4} {
		w := ad.NewVariable(mat.FromRows([][]float64{{0}}))
		o := NewAdamW([]*ad.Value{w}, AdamWConfig{LR: 0.01})
		w.Grad.Data[0] = scale
		o.Step()
		if got := math.Abs(w.Data.Data[0]); math.Abs(got-0.01) > 1e-4 {
			t.Fatalf("first step with grad %v moved %v, want ~lr", scale, got)
		}
	}
}

func TestAdamWWeightDecayDecoupled(t *testing.T) {
	// With zero gradient, decoupled weight decay still shrinks weights.
	w := ad.NewVariable(mat.FromRows([][]float64{{2}}))
	o := NewAdamW([]*ad.Value{w}, AdamWConfig{LR: 0.1, WeightDecay: 0.5})
	o.Step() // grad is zero
	want := 2 - 0.1*0.5*2
	if math.Abs(w.Data.Data[0]-want) > 1e-9 {
		t.Fatalf("w = %v, want %v (pure decay)", w.Data.Data[0], want)
	}
}

func TestSetLR(t *testing.T) {
	w, _ := quad(0)
	a := NewAdamW([]*ad.Value{w}, AdamWConfig{LR: 0.1})
	a.SetLR(0.05)
	if a.LR() != 0.05 {
		t.Fatalf("LR = %v", a.LR())
	}
	s := NewSGD([]*ad.Value{w}, 0.1, 0.9)
	s.SetLR(0.2)
	if s.LR() != 0.2 {
		t.Fatalf("LR = %v", s.LR())
	}
}

func TestCosineDecayMonotone(t *testing.T) {
	prev := math.Inf(1)
	for i := 0; i < 50; i++ {
		lr := CosineDecay(1.0, 0.01, i, 50)
		if lr > prev {
			t.Fatalf("cosine decay not monotone at step %d", i)
		}
		if lr < 0.01-1e-12 || lr > 1.0+1e-12 {
			t.Fatalf("lr %v out of [floor, base]", lr)
		}
		prev = lr
	}
	if got := CosineDecay(1.0, 0.1, 0, 1); got != 1.0 {
		t.Fatalf("degenerate schedule = %v, want base", got)
	}
	// Past-the-end steps clamp to the floor.
	if got := CosineDecay(1.0, 0.1, 200, 100); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("overrun lr = %v, want floor", got)
	}
}

func TestSGDMomentumFasterOnIllConditioned(t *testing.T) {
	// Momentum should reach the target in fewer steps on a shallow slope.
	run := func(momentum float64) int {
		w, grad := quad(10)
		o := NewSGD([]*ad.Value{w}, 0.02, momentum)
		for i := 0; i < 2000; i++ {
			grad()
			o.Step()
			if math.Abs(w.Data.Data[0]-10) < 1e-3 {
				return i
			}
		}
		return 2000
	}
	plain, mom := run(0), run(0.9)
	if mom >= plain {
		t.Fatalf("momentum (%d steps) not faster than plain SGD (%d steps)", mom, plain)
	}
}
