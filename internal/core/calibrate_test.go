package core

import (
	"math"
	"testing"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

// calibSetup trains a small predictor and returns it with its training
// set — Calibrate needs the base dataset to retain.
func calibSetup(t *testing.T, seed int64) (*Predictor, *dataset.Dataset) {
	t.Helper()
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: seed, BMM: 150, FC: 80, EW: 60, Softmax: 40, LN: 40,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := NewPredictor(testConfig(), tdb)
	if rep := p.Train(ds); len(rep.FinalLoss) != 5 {
		t.Fatalf("trained %d categories, want 5", len(rep.FinalLoss))
	}
	return p, ds
}

// Calibrate must move the affected category's predictions toward the
// observed latencies, bump the generation (the cache/gossip invalidation
// signal), and leave the other categories' MLPs untouched.
func TestCalibrateShiftsPredictionsTowardObserved(t *testing.T) {
	p, ds := calibSetup(t, 42)
	g := gpu.MustLookup("H100")

	probe := kernels.NewBMM(4, 512, 512, 512)
	before, err := p.PredictKernel(probe, g)
	if err != nil {
		t.Fatal(err)
	}
	smProbe := kernels.NewSoftmax(64, 1024)
	smBefore, err := p.PredictKernel(smProbe, g)
	if err != nil {
		t.Fatal(err)
	}

	// Pretend reality is 3x slower than the model thinks, across a spread
	// of BMM shapes around the probe. No tiles attached: featurization
	// must resolve them through the predictor's tile DB.
	var calib []dataset.Sample
	for _, m := range []int{256, 384, 512, 640, 768} {
		k := kernels.NewBMM(4, m, 512, 512)
		pred, err := p.PredictKernel(k, g)
		if err != nil {
			t.Fatal(err)
		}
		calib = append(calib, dataset.Sample{Kernel: k, GPU: g, Latency: 3 * pred})
	}

	gen0 := p.Generation()
	rep := p.Calibrate(ds, calib)
	if rep.Trained[kernels.CatBMM] != len(calib) {
		t.Fatalf("trained %v, want %d BMM samples", rep.Trained, len(calib))
	}
	if rep.Skipped != 0 {
		t.Fatalf("skipped %d, want 0", rep.Skipped)
	}
	if p.Generation() <= gen0 {
		t.Fatalf("generation %d after calibration, want > %d", p.Generation(), gen0)
	}

	after, err := p.PredictKernel(probe, g)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("calibrated prediction %v did not move up from %v toward %v", after, before, 3*before)
	}
	// Other categories must be untouched: calibration retrains per
	// category, not the whole model.
	smAfter, err := p.PredictKernel(smProbe, g)
	if err != nil {
		t.Fatal(err)
	}
	if smAfter != smBefore {
		t.Fatalf("softmax prediction moved %v -> %v; calibration must only retrain BMM", smBefore, smAfter)
	}
}

func TestCalibrateSkipsUntrainableSamples(t *testing.T) {
	p, ds := calibSetup(t, 43)
	g := gpu.MustLookup("H100")
	gen0 := p.Generation()
	rep := p.Calibrate(ds, []dataset.Sample{
		{Kernel: kernels.NewEmbedding(2048, 1024, 50257), GPU: g, Latency: 5}, // memory-bound: no MLP
		{Kernel: kernels.NewBMM(4, 512, 512, 512), GPU: g, Latency: 0},        // non-positive latency
	})
	if rep.Skipped != 2 || len(rep.Trained) != 0 {
		t.Fatalf("skipped=%d trained=%v, want 2 skipped and nothing trained", rep.Skipped, rep.Trained)
	}
	if p.Generation() != gen0 {
		t.Fatal("nothing trained, yet the generation moved")
	}
}

// Calibrating without the base dataset (a process started from a saved
// model, its training set long gone) fine-tunes the loaded model rather
// than failing.
func TestCalibrateWithoutBaseDataset(t *testing.T) {
	p, _ := calibSetup(t, 44)
	g := gpu.MustLookup("H100")
	var calib []dataset.Sample
	for _, m := range []int{256, 512, 768} {
		calib = append(calib, dataset.Sample{Kernel: kernels.NewBMM(4, m, 512, 512), GPU: g, Latency: 2})
	}
	rep := p.Calibrate(nil, calib)
	if rep.Trained[kernels.CatBMM] != 3 {
		t.Fatalf("trained %v, want 3 BMM samples", rep.Trained)
	}
}

// TestCalibrateFromModelKeepsOtherGPUs: without a base set (a process
// started from -model, its training set long gone), a window of honest
// measurements from one GPU the predictor never trained on improves that
// GPU's held-out BMM error and makes no other GPU's more than 5 points
// worse.
// A retrain from scratch on the window alone, what Calibrate did without a
// base set before it fine-tuned, made every GPU worse here, H100 itself
// included (19.8% -> 135.4%, L4 65.2% -> 287.1%).
func TestCalibrateFromModelKeepsOtherGPUs(t *testing.T) {
	p, _ := calibSetup(t, 42)
	sim := gpusim.New()
	h100 := gpu.MustLookup("H100")
	held := dataset.Generate(dataset.GenConfig{Seed: 99, BMM: 60, GPUs: gpu.All(), MaxBMMDim: 1024}, sim, tile.NewDB())
	measured := dataset.Generate(dataset.GenConfig{Seed: 77, BMM: 32, GPUs: []gpu.Spec{h100}, MaxBMMDim: 1024}, sim, tile.NewDB())
	var window []dataset.Sample
	for _, s := range measured.Samples {
		window = append(window, dataset.Sample{Kernel: s.Kernel, GPU: s.GPU, Latency: s.Latency})
	}
	before := heldOutMAPE(t, p, held)
	if rep := p.Calibrate(nil, window); rep.Trained[kernels.CatBMM] != len(window) {
		t.Fatalf("trained %v, want %d BMM samples", rep.Trained, len(window))
	}
	after := heldOutMAPE(t, p, held)
	for _, g := range gpu.All() {
		b, a := before[g.Name], after[g.Name]
		t.Logf("%s %.1f -> %.1f", g.Name, b, a)
		if g.Name == "H100" {
			if !(a < b) {
				t.Errorf("observed H100: held-out MAPE %.1f%% -> %.1f%%, want it lower", b, a)
			}
		} else if a > b+5 {
			t.Errorf("unobserved %s: held-out MAPE %.1f%% -> %.1f%%, more than 5 points worse", g.Name, b, a)
		}
	}
}

// heldOutMAPE is p's mean absolute percentage error on held, per GPU.
func heldOutMAPE(t *testing.T, p *Predictor, held *dataset.Dataset) map[string]float64 {
	t.Helper()
	sum, n := map[string]float64{}, map[string]int{}
	for _, s := range held.Samples {
		lat, err := p.PredictKernel(s.Kernel, s.GPU)
		if err != nil {
			t.Fatal(err)
		}
		sum[s.GPU.Name] += math.Abs(lat/s.Latency-1) * 100
		n[s.GPU.Name]++
	}
	for g := range sum {
		sum[g] /= float64(n[g])
	}
	return sum
}
