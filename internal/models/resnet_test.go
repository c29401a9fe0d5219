package models

import (
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/graph"
	"neusight/internal/kernels"
)

func TestResNet50GraphValid(t *testing.T) {
	g := ResNet50InferenceGraph(8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := g.CountByCategory()
	// 53 convs (1 stem + 16 blocks x 3 + 4 projections) + 1 FC head.
	if got := counts[kernels.CatLinear]; got != 54 {
		t.Fatalf("conv+fc count = %d, want 54", got)
	}
	if counts[kernels.CatMemoryBound] < 2 {
		t.Fatal("missing pooling kernels")
	}
}

func TestResNet50FLOPs(t *testing.T) {
	// ResNet-50 forward is ~4.1 GFLOPs per 224x224 image (standard
	// figure); allow 2x for the bias/BN accounting.
	g := ResNet50InferenceGraph(1)
	flops := g.TotalFLOPs()
	if flops < 3e9 || flops > 10e9 {
		t.Fatalf("ResNet-50 forward FLOPs = %.3g, want ~4-8 GFLOPs", flops)
	}
	// Scales linearly with batch.
	f8 := ResNet50InferenceGraph(8).TotalFLOPs()
	if r := f8 / flops; r < 7.5 || r > 8.5 {
		t.Fatalf("batch scaling ratio = %v", r)
	}
}

func TestResNet50TrainingRatio(t *testing.T) {
	fwd := ResNet50InferenceGraph(4)
	inf := fwd.TotalFLOPs()
	train := graph.Backward(fwd).TotalFLOPs()
	if r := train / inf; r < 2.5 || r > 3.5 {
		t.Fatalf("train/infer FLOP ratio = %v, want ~3", r)
	}
}

func TestConv2DLowering(t *testing.T) {
	k := kernels.NewConv2D(kernels.Conv2DShape{
		Batch: 2, Cin: 64, H: 56, W: 56, Cout: 128, Kh: 3, Kw: 3, Stride: 2, Pad: 1,
	})
	// Output 28x28: M = 2*28*28, K = 64*9, N = 128.
	if k.M != 2*28*28 || k.K != 576 || k.N != 128 {
		t.Fatalf("lowered dims = M%d K%d N%d", k.M, k.K, k.N)
	}
	if k.Category() != kernels.CatLinear {
		t.Fatal("conv must route to the FC predictor (implicit GEMM)")
	}
	// Input traffic reflects the real tensor, not the im2col expansion.
	inputBytes := 4.0 * 2 * 64 * 56 * 56
	if k.MemBytes() > inputBytes+4*float64(k.K*k.N+k.M*k.N)+1 {
		t.Fatalf("conv traffic %.3g should not include im2col expansion", k.MemBytes())
	}
}

func TestConv2DOutputCollapsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	kernels.NewConv2D(kernels.Conv2DShape{Batch: 1, Cin: 1, H: 2, W: 2, Cout: 1, Kh: 5, Kw: 5, Stride: 1, Pad: 0})
}

// TestResNet50SimulatedLatencyPlausible pins the simulated V100 iteration
// into a broad plausibility band (real V100 ResNet-50 inference at batch
// 256 is tens to a couple hundred ms).
func TestResNet50SimulatedLatencyPlausible(t *testing.T) {
	sim := gpusim.New()
	v100 := gpu.MustLookup("V100")
	g := ResNet50InferenceGraph(256)
	total := 0.0
	for _, k := range g.Kernels() {
		total += sim.KernelLatency(k, v100)
	}
	if total < 20 || total > 2000 {
		t.Fatalf("simulated ResNet-50 b256 inference = %.1f ms, outside plausible band", total)
	}
}
