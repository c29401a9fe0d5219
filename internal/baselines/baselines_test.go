package baselines

import (
	"math"
	"testing"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/metrics"
)

func genData(t *testing.T, seed int64, gpus []gpu.Spec) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.GenConfig{
		Seed: seed, BMM: 120, FC: 60, EW: 40, Softmax: 20, LN: 20,
		GPUs: gpus, MaxBMMDim: 1024,
	}, gpusim.New(), nil)
}

// TestLiRegressionFitIsDeterministic fits one dataset 20 times and holds
// every forecast on the held-out GPUs — where the cross-GPU fit
// extrapolates — to the first fit's bits.
func TestLiRegressionFitIsDeterministic(t *testing.T) {
	ds := genData(t, 5, gpu.TrainSet())
	ks := []kernels.Kernel{
		kernels.NewBMM(8, 512, 512, 512),
		kernels.NewLinear(256, 1024, 4096),
		kernels.NewElementwise(kernels.OpEWAdd, 512, 4096),
		kernels.NewSoftmax(4096, 1024),
		kernels.NewLayerNorm(4096, 1024),
	}
	var first []uint64
	for fit := 0; fit < 20; fit++ {
		li := NewLiRegression()
		li.Train(ds)
		var bits []uint64
		for _, g := range gpu.TestSet() {
			for _, k := range ks {
				lat, err := li.PredictKernel(k, g)
				if err != nil {
					t.Fatalf("%s on %s: %v", k.Label(), g.Name, err)
				}
				bits = append(bits, math.Float64bits(lat))
			}
		}
		if fit == 0 {
			first = bits
			continue
		}
		for i := range bits {
			if bits[i] != first[i] {
				t.Fatalf("fit %d: forecast %d is %x, fit 0 gave %x", fit, i, bits[i], first[i])
			}
		}
	}
}

func fastCfg() DirectConfig {
	return DirectConfig{Hidden: 32, Layers: 2, Epochs: 25, BatchSize: 128, LR: 5e-3, Seed: 3}
}

func TestRooflineIsOptimisticBound(t *testing.T) {
	sim := gpusim.New()
	r := Roofline{}
	g := gpu.MustLookup("V100")
	for _, k := range []kernels.Kernel{
		kernels.NewBMM(16, 1024, 1024, 1024),
		kernels.NewLinear(4096, 4096, 4096),
		kernels.NewElementwise(kernels.OpEWAdd, 8192, 4096),
	} {
		pred, err := r.PredictKernel(k, g)
		if err != nil {
			t.Fatal(err)
		}
		measured := sim.KernelLatency(k, g)
		if pred > measured {
			t.Fatalf("roofline %v slower than measured %v for %s — must be a lower bound", pred, measured, k.Label())
		}
		if pred <= 0 {
			t.Fatalf("non-positive roofline for %s", k.Label())
		}
	}
}

func TestRooflineFP16UsesTensorCorePeak(t *testing.T) {
	r := Roofline{}
	g := gpu.MustLookup("H100")
	k32 := kernels.NewBMM(64, 4096, 4096, 4096)
	p32, _ := r.PredictKernel(k32, g)
	p16, _ := r.PredictKernel(k32.WithDType(kernels.FP16), g)
	if p16 >= p32/2 {
		t.Fatalf("fp16 roofline %v not reflecting tensor-core peak vs %v", p16, p32)
	}
}

func TestDirectMLPLearnsInDistribution(t *testing.T) {
	ds := genData(t, 31, gpu.TrainSet())
	bmm := ds.FilterCategory(kernels.CatBMM)
	train, val := bmm.Split(0.25, 5)
	m := NewDirectMLP(fastCfg())
	m.Train(train.Samples)
	var errs []float64
	for _, s := range val.Samples {
		pred, err := m.Predict(s.Kernel, s.GPU)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, metrics.APE(pred, s.Latency))
	}
	if mape := metrics.Mean(errs); mape > 80 {
		t.Fatalf("direct MLP in-distribution MAPE = %.1f%%, want < 80%%", mape)
	}
}

func TestHabitatTrainsAndPredicts(t *testing.T) {
	sim := gpusim.New()
	ds := genData(t, 32, gpu.TrainSet())
	h := NewHabitat(fastCfg(), sim)
	h.Train(ds)

	g := gpu.MustLookup("T4")
	if _, err := h.PredictKernel(kernels.NewBMM(8, 512, 512, 512), g); err != nil {
		t.Fatal(err)
	}
	// Kernel-alike path: EW prediction scales the V100 reference by the
	// bandwidth ratio.
	k := kernels.NewElementwise(kernels.OpEWAdd, 8192, 2048)
	got, err := h.PredictKernel(k, g)
	if err != nil {
		t.Fatal(err)
	}
	ref := gpu.MustLookup("V100")
	want := sim.KernelLatency(k, ref) * (ref.MemoryBWGBs / g.MemoryBWGBs)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("kernel-alike scaling = %v, want %v", got, want)
	}
}

func TestHabitatUsesAltReferenceForV100(t *testing.T) {
	sim := gpusim.New()
	h := NewHabitat(fastCfg(), sim)
	k := kernels.NewElementwise(kernels.OpEWTanh, 4096, 1024)
	v100 := gpu.MustLookup("V100")
	got, err := h.PredictKernel(k, v100)
	if err != nil {
		t.Fatal(err)
	}
	p100 := gpu.MustLookup("P100")
	want := sim.KernelLatency(k, p100) * (p100.MemoryBWGBs / v100.MemoryBWGBs)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("V100 must scale from P100: got %v, want %v", got, want)
	}
}

func TestHabitatRejectsNetwork(t *testing.T) {
	h := NewHabitat(fastCfg(), gpusim.New())
	if _, err := h.PredictKernel(kernels.Kernel{Op: kernels.OpAllReduce, B: 100, M: 1}, gpu.MustLookup("V100")); err == nil {
		t.Fatal("expected error for network kernels")
	}
}

// TestHabitatDegradesOOD reproduces the Figure 2a phenomenon: the direct
// MLP's error on out-of-distribution BMMs (dims > training cap) is much
// larger than in-distribution.
func TestHabitatDegradesOOD(t *testing.T) {
	sim := gpusim.New()
	ds := genData(t, 33, gpu.TrainSet())
	h := NewHabitat(fastCfg(), sim)
	h.Train(ds)

	inDist := dataset.Generate(dataset.GenConfig{
		Seed: 41, BMM: 60, GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, sim, nil)
	ood := dataset.Generate(dataset.GenConfig{
		Seed: 42, BMM: 60, GPUs: gpu.TestSet(), MaxBMMDim: 4096,
	}, sim, nil)
	errOf := func(d *dataset.Dataset) float64 {
		var errs []float64
		for _, s := range d.Samples {
			p, err := h.PredictKernel(s.Kernel, s.GPU)
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, metrics.APE(p, s.Latency))
		}
		return metrics.Mean(errs)
	}
	in, out := errOf(inDist), errOf(ood)
	if out < in*1.5 {
		t.Fatalf("OOD error %.1f%% not clearly worse than in-dist %.1f%%", out, in)
	}
}

func TestLiRegressionInDistribution(t *testing.T) {
	ds := genData(t, 34, gpu.TrainSet())
	l := NewLiRegression()
	l.Train(ds)
	// On a training GPU with a large (linear-regime) GEMM the fit should
	// be in the right ballpark.
	sim := gpusim.New()
	g := gpu.MustLookup("A100-40GB")
	k := kernels.NewBMM(64, 1024, 1024, 1024)
	pred, err := l.PredictKernel(k, g)
	if err != nil {
		t.Fatal(err)
	}
	measured := sim.KernelLatency(k, g)
	if e := metrics.APE(pred, measured); e > 100 {
		t.Fatalf("Li et al. large-GEMM in-dist error = %.1f%%, want < 100%%", e)
	}
}

func TestLiRegressionExtrapolatesToUnseenGPU(t *testing.T) {
	ds := genData(t, 35, gpu.TrainSet())
	l := NewLiRegression()
	l.Train(ds)
	// Unseen GPU goes through the bandwidth regression; must be positive
	// and finite.
	pred, err := l.PredictKernel(kernels.NewBMM(16, 2048, 2048, 2048), gpu.MustLookup("H100"))
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || math.IsInf(pred, 0) || math.IsNaN(pred) {
		t.Fatalf("extrapolated prediction = %v", pred)
	}
}

// TestLiRegressionFailsOnSmallKernels reproduces Figure 2b: the linear
// assumption breaks for small GEMMs where the GPU is under-utilized.
func TestLiRegressionFailsOnSmallKernels(t *testing.T) {
	ds := genData(t, 36, gpu.TrainSet())
	l := NewLiRegression()
	l.Train(ds)
	sim := gpusim.New()
	g := gpu.MustLookup("V100")

	small := kernels.NewBMM(1, 32, 32, 32)
	big := kernels.NewBMM(64, 1024, 1024, 1024)
	smallErr := predErr(t, l, small, g, sim)
	bigErr := predErr(t, l, big, g, sim)
	if smallErr < bigErr {
		t.Fatalf("small-GEMM error %.1f%% should exceed large-GEMM error %.1f%%", smallErr, bigErr)
	}
}

func predErr(t *testing.T, l *LiRegression, k kernels.Kernel, g gpu.Spec, sim *gpusim.Simulator) float64 {
	t.Helper()
	p, err := l.PredictKernel(k, g)
	if err != nil {
		t.Fatal(err)
	}
	return metrics.APE(p, sim.KernelLatency(k, g))
}

func TestLeastSquaresExactLine(t *testing.T) {
	s, i := leastSquares([]float64{1, 2, 3}, []float64{5, 7, 9})
	if math.Abs(s-2) > 1e-12 || math.Abs(i-3) > 1e-12 {
		t.Fatalf("leastSquares = %v, %v; want 2, 3", s, i)
	}
	// Degenerate x: slope 0, intercept mean(y).
	s, i = leastSquares([]float64{4, 4}, []float64{1, 3})
	if s != 0 || i != 2 {
		t.Fatalf("degenerate fit = %v, %v", s, i)
	}
}

func TestDirectTransformerTrains(t *testing.T) {
	ds := genData(t, 37, gpu.TrainSet())
	bmm := ds.FilterCategory(kernels.CatBMM)
	cfg := fastCfg()
	cfg.Epochs = 8
	cfg.BatchSize = 64
	tr := NewDirectTransformer(cfg, 1)
	final := tr.Train(bmm.Samples[:200])
	if math.IsNaN(final) || math.IsInf(final, 0) {
		t.Fatalf("transformer training diverged: %v", final)
	}
	p, err := tr.Predict(kernels.NewBMM(4, 256, 256, 256), gpu.MustLookup("T4"))
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || math.IsNaN(p) {
		t.Fatalf("transformer prediction = %v", p)
	}
}

func TestDirectPredictorsUntrainedError(t *testing.T) {
	k := kernels.NewBMM(2, 64, 64, 64)
	g := gpu.MustLookup("V100")
	if _, err := NewDirectMLP(fastCfg()).Predict(k, g); err == nil {
		t.Fatal("untrained direct MLP must error, not panic")
	}
	if _, err := NewDirectTransformer(fastCfg(), 1).Predict(k, g); err == nil {
		t.Fatal("untrained direct transformer must error, not panic")
	}
}
