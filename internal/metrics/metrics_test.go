package metrics

import (
	"math"
	"testing"
)

func TestAPE(t *testing.T) {
	if got := APE(110, 100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("APE = %v, want 10", got)
	}
	if got := APE(50, 100); math.Abs(got-50) > 1e-12 {
		t.Fatalf("APE = %v, want 50", got)
	}
	if got := APE(0, 0); got != 0 {
		t.Fatalf("APE(0,0) = %v, want 0", got)
	}
	if got := APE(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("APE(1,0) = %v, want +Inf", got)
	}
}

func TestMeanMax(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Max([]float64{3, 9, 2}); got != 9 {
		t.Fatalf("Max = %v", got)
	}
	if got := Max(nil); got != 0 {
		t.Fatalf("Max(nil) = %v", got)
	}
}
