package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/metrics"
	"neusight/internal/tile"
)

// testConfig is a fast configuration for unit tests.
func testConfig() Config {
	return Config{Hidden: 32, Layers: 2, Epochs: 25, BatchSize: 128, LR: 5e-3, WeightDecay: 1e-4, Seed: 1}
}

// trainSmall builds a small but functional predictor over the given
// categories.
func trainSmall(t *testing.T, seed int64) *Predictor {
	t.Helper()
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: seed, BMM: 150, FC: 80, EW: 60, Softmax: 40, LN: 40,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := NewPredictor(testConfig(), tdb)
	rep := p.Train(ds)
	if len(rep.FinalLoss) != 5 {
		t.Fatalf("trained %d categories, want 5", len(rep.FinalLoss))
	}
	return p
}

func TestFeaturesShapeAndFiniteness(t *testing.T) {
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(8, 512, 512, 512)
	tl := tile.Select(k, g)
	waves := tile.Waves(k, tl, g)
	f := Features(k, g, tl, waves)
	if len(f) != NumFeatures {
		t.Fatalf("features = %d, want %d", len(f), NumFeatures)
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d = %v", i, v)
		}
	}
}

func TestFeaturesReflectPrecision(t *testing.T) {
	g := gpu.MustLookup("H100")
	k32 := kernels.NewBMM(8, 1024, 1024, 1024)
	k16 := k32.WithDType(kernels.FP16)
	tl := tile.Select(k32, g)
	w := tile.Waves(k32, tl, g)
	f32 := Features(k32, g, tl, w)
	f16 := Features(k16, g, tl, w)
	// fp16 tensor-core peak is higher -> compute-seconds feature drops.
	if f16[0] >= f32[0] {
		t.Fatal("fp16 should reduce the compute-time feature on tensor-core GPUs")
	}
	if f16[1] >= f32[1] {
		t.Fatal("fp16 halves traffic; memory-time feature must drop")
	}
}

func TestRooflineBW(t *testing.T) {
	g := gpu.MustLookup("V100")
	// Huge square GEMM: compute bound -> roofline = peak FLOPS.
	big := kernels.NewBMM(1, 8192, 8192, 8192)
	if got := RooflineBW(big, g); got != g.PeakFLOPS*1e12 {
		t.Fatalf("compute-bound roofline = %v, want peak", got)
	}
	// Elementwise add: memory bound -> roofline < peak.
	ew := kernels.NewElementwise(kernels.OpEWAdd, 4096, 4096)
	if got := RooflineBW(ew, g); got >= g.PeakFLOPS*1e12 {
		t.Fatal("memory-bound roofline should be below peak FLOPS")
	}
}

func TestMemBoundLatency(t *testing.T) {
	g := gpu.MustLookup("A100-40GB")
	k := kernels.NewEmbedding(2048, 1024, 50257)
	want := k.MemBytes() / (g.MemoryBWGBs * 1e9) * 1e3
	if got := MemBoundLatency(k, g); got != want {
		t.Fatalf("MemBoundLatency = %v, want %v", got, want)
	}
}

func TestTrainAndPredictInDistribution(t *testing.T) {
	p := trainSmall(t, 21)
	sim := gpusim.New()
	// In-distribution accuracy on freshly sampled kernels from the
	// training ranges, on training GPUs.
	eval := dataset.Generate(dataset.GenConfig{
		Seed: 99, BMM: 40, FC: 20, EW: 15, Softmax: 10, LN: 10,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, sim, nil)
	var errs []float64
	for _, s := range eval.Samples {
		pred, err := p.PredictKernel(s.Kernel, s.GPU)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, metrics.APE(pred, s.Latency))
	}
	mape := metrics.Mean(errs)
	if mape > 35 {
		t.Fatalf("in-distribution MAPE = %.1f%%, want < 35%%", mape)
	}
}

func TestGeneralizesToUnseenGPU(t *testing.T) {
	p := trainSmall(t, 22)
	sim := gpusim.New()
	eval := dataset.Generate(dataset.GenConfig{
		Seed: 100, BMM: 40, FC: 20, EW: 15, Softmax: 10, LN: 10,
		GPUs: gpu.TestSet(), MaxBMMDim: 1024,
	}, sim, nil)
	var errs []float64
	for _, s := range eval.Samples {
		pred, err := p.PredictKernel(s.Kernel, s.GPU)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, metrics.APE(pred, s.Latency))
	}
	mape := metrics.Mean(errs)
	// The paper's headline: error stays bounded on unseen GPUs.
	if mape > 60 {
		t.Fatalf("unseen-GPU MAPE = %.1f%%, want < 60%%", mape)
	}
}

// TestPredictionsRespectRoofline: the core design guarantee — predicted
// latency can never be faster than the roofline bound (util <= 1).
func TestPredictionsRespectRoofline(t *testing.T) {
	p := trainSmall(t, 23)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gpus := gpu.All()
		g := gpus[r.Intn(len(gpus))]
		k := kernels.NewBMM(1+r.Intn(64), 1+r.Intn(4096), 1+r.Intn(4096), 1+r.Intn(4096))
		pred, err := p.PredictKernel(k, g)
		if err != nil {
			return false
		}
		tl := p.TileDB.LookupOrSelect(k, g)
		c, _ := latencyConstant(k, g, tl)
		// c is the latency at util=1, the physical floor.
		return pred >= c*0.999 && pred > 0 && !math.IsNaN(pred)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationBounded(t *testing.T) {
	p := trainSmall(t, 24)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := kernels.NewBMM(1+r.Intn(128), 1+r.Intn(2048), 1+r.Intn(2048), 1+r.Intn(2048))
		g := gpu.All()[r.Intn(len(gpu.All()))]
		u, err := p.Utilization(k, g)
		return err == nil && u >= utilFloor-1e-9 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBoundFallbackForUnseenOps(t *testing.T) {
	p := trainSmall(t, 25)
	g := gpu.MustLookup("H100")
	k := kernels.NewEmbedding(4096, 1024, 50257)
	got, err := p.PredictKernel(k, g)
	if err != nil {
		t.Fatal(err)
	}
	if got != MemBoundLatency(k, g) {
		t.Fatal("unseen ops must use the memory-bound fallback")
	}
}

func TestNetworkKernelRejected(t *testing.T) {
	p := NewPredictor(testConfig(), nil)
	if _, err := p.PredictKernel(kernels.Kernel{Op: kernels.OpAllReduce, B: 1024, M: 1}, gpu.MustLookup("V100")); err == nil {
		t.Fatal("network kernels must be rejected")
	}
}

func TestUntrainedCategoryError(t *testing.T) {
	p := NewPredictor(testConfig(), nil)
	if _, err := p.PredictKernel(kernels.NewBMM(1, 64, 64, 64), gpu.MustLookup("V100")); err == nil {
		t.Fatal("expected ErrUntrained")
	}
}

// TestGenerationMovesOnRetrainAndProfiling: Generation must change on
// every event that can change a forecast — retraining a category and
// adding tile records — so generation-keyed serving caches invalidate, and
// only then: a Train that fits no category publishes nothing.
func TestGenerationMovesOnRetrainAndProfiling(t *testing.T) {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 51, BMM: 40, FC: 20, EW: 15, Softmax: 8, LN: 8,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := NewPredictor(testConfig(), tdb)
	g0 := p.Generation()
	p.Train(ds)
	g1 := p.Generation()
	if g1 == g0 {
		t.Fatal("Generation must change after Train")
	}
	p.Train(ds.FilterCategory(kernels.CatBMM))
	g2 := p.Generation()
	if g2 == g1 {
		t.Fatal("Generation must change after a category retrain")
	}
	if rep := p.Train(ds.FilterCategory(kernels.CatMemoryBound)); len(rep.FinalLoss) != 0 || p.Generation() != g2 {
		t.Fatalf("Train with no trainable category fit %v and moved the generation %d -> %d", rep.FinalLoss, g2, p.Generation())
	}
	k := kernels.NewBMM(1, 32, 32, 32)
	gp := gpu.MustLookup("V100")
	p.TileDB.Add(k, gp, tile.Select(k, gp))
	if p.Generation() == g2 {
		t.Fatal("Generation must change when the tile database grows")
	}
}

// TestPredictKernelDetailMatchesPredictKernel: the Detail variant is the
// same pipeline plus the utilization — never a divergent fork.
func TestPredictKernelDetailMatchesPredictKernel(t *testing.T) {
	p := trainSmall(t, 31)
	g := gpu.MustLookup("H100")
	k := kernels.NewBMM(8, 384, 384, 384)
	lat, err := p.PredictKernel(k, g)
	if err != nil {
		t.Fatal(err)
	}
	dlat, util, err := p.PredictKernelDetail(k, g)
	if err != nil {
		t.Fatal(err)
	}
	if dlat != lat {
		t.Fatalf("detail latency %v != %v", dlat, lat)
	}
	if util <= 0 || util > 1 {
		t.Fatalf("utilization %v out of (0, 1]", util)
	}
	wantUtil, err := p.Utilization(k, g)
	if err != nil {
		t.Fatal(err)
	}
	if util != wantUtil {
		t.Fatalf("detail utilization %v != Utilization() %v", util, wantUtil)
	}
}

// TestSaveLoadRoundTrip: a calibrated predictor reloaded from its saved
// file answers every probe with the same bits on every GPU — a restart
// that loads a saved calibration serves exactly what was served before it.
func TestSaveLoadRoundTrip(t *testing.T) {
	p := trainSmall(t, 26)
	h100 := gpu.MustLookup("H100")
	var window []dataset.Sample
	for _, m := range []int{256, 384, 512, 640} {
		for _, k := range []kernels.Kernel{kernels.NewBMM(4, m, 512, 512), kernels.NewLinear(m, 1024, 1024)} {
			lat, err := p.PredictKernel(k, h100)
			if err != nil {
				t.Fatal(err)
			}
			window = append(window, dataset.Sample{Kernel: k, GPU: h100, Latency: 3 * lat})
		}
	}
	if rep := p.Calibrate(nil, window); len(rep.Trained) != 2 {
		t.Fatalf("calibration retrained %v, want BMM and Linear", rep.Trained)
	}

	dir := t.TempDir()
	modelPath := filepath.Join(dir, "neusight.json")
	tilePath := filepath.Join(dir, "tiles.json")
	if err := p.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := p.TileDB.Save(tilePath); err != nil {
		t.Fatal(err)
	}

	tdb, err := tile.LoadDB(tilePath)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(modelPath, tdb)
	if err != nil {
		t.Fatal(err)
	}
	probes := []kernels.Kernel{
		kernels.NewBMM(16, 768, 768, 768), kernels.NewBMM(4, 512, 512, 512),
		kernels.NewLinear(2048, 1024, 4096), kernels.NewLinear(512, 1024, 1024),
		kernels.NewSoftmax(64, 1024), kernels.NewSoftmax(4096, 512),
		kernels.NewLayerNorm(4096, 1024), kernels.NewLayerNorm(512, 768),
	}
	n := 0
	for _, g := range gpu.All() {
		for _, k := range probes {
			want, err := p.PredictKernel(k, g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.PredictKernel(k, g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s on %s: reloaded prediction %v != original %v", k.Label(), g.Name, got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no probe compared")
	}
	if len(back.TrainedCategories()) != 5 {
		t.Fatalf("reloaded categories = %v", back.TrainedCategories())
	}
}

// TestSaveReplacesTheModel: a Save over a saved model replaces it whole
// and leaves no temporary file beside it, and a Save that cannot even
// create its temporary file fails without writing anything. The failures
// part-way through the write (jsonl.Commit) are tested in internal/jsonl.
func TestSaveReplacesTheModel(t *testing.T) {
	p := trainSmall(t, 28)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "neusight.json")
	if err := p.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	h100 := gpu.MustLookup("H100")
	k := kernels.NewBMM(4, 512, 512, 512)
	lat, err := p.PredictKernel(k, h100)
	if err != nil {
		t.Fatal(err)
	}
	p.Calibrate(nil, []dataset.Sample{{Kernel: k, GPU: h100, Latency: 3 * lat}})
	if err := p.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "neusight.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after two Saves, want only neusight.json", names)
	}
	info, err := os.Stat(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("model file mode %v, want 0644", info.Mode().Perm())
	}
	back, err := Load(modelPath, p.TileDB)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.PredictKernel(k, h100)
	if want == lat {
		t.Fatal("the calibration did not move the forecast")
	}
	if got, _ := back.PredictKernel(k, h100); got != want {
		t.Fatalf("reloaded forecast %v, want the calibrated %v", got, want)
	}
	// A directory that does not exist fails before any byte is written.
	if err := p.Save(filepath.Join(dir, "gone", "neusight.json")); err == nil {
		t.Fatal("Save into a missing directory returned nil")
	}
}

// graphOfThree builds a tiny LN -> Linear -> GELU graph.
func graphOfThree() *graph.Graph {
	g := graph.New("three")
	a := g.Add(kernels.NewLayerNorm(4096, 1024))
	b := g.Add(kernels.NewLinear(4096, 1024, 4096), a)
	g.Add(kernels.NewElementwise(kernels.OpEWGELU, 4096, 4096), b)
	return g
}

func TestPredictGraphSumsKernels(t *testing.T) {
	p := trainSmall(t, 27)
	g := gpu.MustLookup("A100-80GB")
	gr := graphOfThree()
	var want float64
	for _, k := range gr.Kernels() {
		l, err := p.PredictKernel(k, g)
		if err != nil {
			t.Fatal(err)
		}
		want += l
	}
	got, rep, err := p.PredictGraph(gr, g)
	if err != nil {
		t.Fatalf("PredictGraph: %v", err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("PredictGraph = %v, want %v", got, want)
	}
	if rep.Kernels != 3 || rep.Predicted != 3 || rep.Fallbacks != 0 {
		t.Fatalf("GraphReport = %+v, want 3 predicted", rep)
	}
}
