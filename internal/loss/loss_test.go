package loss

import (
	"math"
	"testing"

	ad "neusight/internal/autodiff"
	"neusight/internal/mat"
)

func vals(pred, target []float64) (*ad.Value, *ad.Value) {
	return ad.NewVariable(mat.FromSlice(len(pred), 1, pred)),
		ad.NewConstant(mat.FromSlice(len(target), 1, target))
}

func TestMSE(t *testing.T) {
	p, y := vals([]float64{1, 2}, []float64{3, 2})
	l := MSE(p, y)
	if got := l.Data.Data[0]; math.Abs(got-2) > 1e-12 { // ((−2)²+0)/2
		t.Fatalf("MSE = %v, want 2", got)
	}
	ad.Backward(l)
	// d/dp mean((p-y)²) = 2(p-y)/n
	if g := p.Grad.Data[0]; math.Abs(g-(-2)) > 1e-12 {
		t.Fatalf("MSE grad = %v, want -2", g)
	}
}

func TestSMAPEPerfectPrediction(t *testing.T) {
	p, y := vals([]float64{5, 7, 9}, []float64{5, 7, 9})
	if got := SMAPE(p, y).Data.Data[0]; got > 1e-9 {
		t.Fatalf("SMAPE of perfect prediction = %v, want ~0", got)
	}
}

func TestSMAPESymmetry(t *testing.T) {
	// SMAPE(a, b) == SMAPE(b, a) by construction.
	a, b := []float64{3, 8}, []float64{5, 6}
	p1, y1 := vals(a, b)
	p2, y2 := vals(b, a)
	l1 := SMAPE(p1, y1).Data.Data[0]
	l2 := SMAPE(p2, y2).Data.Data[0]
	if math.Abs(l1-l2) > 1e-12 {
		t.Fatalf("SMAPE asymmetric: %v vs %v", l1, l2)
	}
}

func TestSMAPEBounded(t *testing.T) {
	// SMAPE is bounded by 2 even for wild mispredictions.
	p, y := vals([]float64{1e9, 1e-9}, []float64{1e-9, 1e9})
	if got := SMAPE(p, y).Data.Data[0]; got > 2+1e-9 {
		t.Fatalf("SMAPE = %v, exceeds bound 2", got)
	}
}

func TestLossesBackpropagate(t *testing.T) {
	for name, fn := range map[string]func(p, y *ad.Value) *ad.Value{
		"MSE": MSE, "SMAPE": SMAPE,
	} {
		p, y := vals([]float64{2, 4}, []float64{3, 3})
		l := fn(p, y)
		ad.Backward(l)
		nonzero := false
		for _, g := range p.Grad.Data {
			if g != 0 {
				nonzero = true
			}
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("%s produced bad grad %v", name, g)
			}
		}
		if !nonzero {
			t.Fatalf("%s produced zero gradient", name)
		}
	}
}
