package core

import (
	"sync"
	"testing"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/tile"
)

// benchState is the shared fixture for the prediction benchmarks: a trained
// predictor at the paper-family architecture scale used by `neusight serve
// -quick`, plus a pool of distinct BMM kernels to draw batches from.
var (
	benchOnce sync.Once
	benchPred *Predictor
	benchGPU  gpu.Spec
	benchPool []kernels.Kernel
)

func benchSetup(b *testing.B) (*Predictor, gpu.Spec) {
	b.Helper()
	benchOnce.Do(func() {
		tdb := tile.NewDB()
		ds := dataset.Generate(dataset.GenConfig{
			Seed: 21, BMM: 150, FC: 80, EW: 60, Softmax: 40, LN: 40,
			GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
		}, gpusim.New(), tdb)
		benchPred = NewPredictor(Config{
			Hidden: 48, Layers: 3, Epochs: 8, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 21,
		}, tdb)
		benchPred.Train(ds)
		benchGPU = gpu.MustLookup("H100")
		for i := 0; i < 256; i++ {
			benchPool = append(benchPool, kernels.NewBMM(1+i%8, 64+i, 64+(i*7)%512, 64+(i*13)%512))
		}
		// Pre-resolve every tile and force compilation so both benchmark
		// paths measure model evaluation, not first-touch database scans.
		benchPred.PredictKernels(benchPool, benchGPU)
	})
	return benchPred, benchGPU
}

// BenchmarkPredictKernelCompiled measures a cache-miss prediction on the
// serving path: tile lookup (memoized), featurization, one compiled forward
// pass, and the scalar utilization law. Compare against
// BenchmarkPredictKernelAutodiff — the acceptance bar is ≥5x fewer
// allocs/op and ≥2x lower ns/op.
func BenchmarkPredictKernelCompiled(b *testing.B) {
	p, g := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictKernel(benchPool[i%len(benchPool)], g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictKernelAutodiff measures the same prediction through the
// pre-compilation path: the full autodiff expression with graph nodes,
// gradient buffers, and backward closures that only training needs.
func BenchmarkPredictKernelAutodiff(b *testing.B) {
	p, g := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.predictKernelAutodiff(benchPool[i%len(benchPool)], g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures PredictKernels across batch sizes; the
// per-kernel cost should fall as one forward pass amortizes over the batch.
func BenchmarkPredictBatch(b *testing.B) {
	p, g := benchSetup(b)
	for _, size := range []int{1, 16, 256} {
		b.Run(benchName(size), func(b *testing.B) {
			ks := benchPool[:size]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, errs := p.PredictKernels(ks, g)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/kernel")
		})
	}
}

// BenchmarkPredictGraph measures a whole-graph forecast offline: compiling
// the graph into its plan, one PredictKernels round over the distinct
// kernels, and the per-node fold. ns/node shows what repetition buys — a
// BERT-Large graph has hundreds of nodes and about a dozen distinct kernels.
func BenchmarkPredictGraph(b *testing.B) {
	p, g := benchSetup(b)
	gr := models.MustLookup("BERT-Large").InferenceGraph(2)
	if _, _, err := p.PredictGraph(gr, g); err != nil { // resolve tiles before timing
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PredictGraph(gr, g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gr.Nodes)), "ns/node")
}

func benchName(size int) string {
	switch size {
	case 1:
		return "batch=1"
	case 16:
		return "batch=16"
	default:
		return "batch=256"
	}
}
