// Package neusight_bench provides one testing.B benchmark per table and
// figure of the paper's evaluation (Section 6). Each benchmark builds (or
// reuses) a reduced-scale lab — profiling the simulated GPUs and training
// every predictor — and then regenerates the corresponding artifact,
// reporting the headline error metric alongside the runtime.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The full-scale artifacts (larger datasets, longer training) come from
// `go run ./cmd/experiments`.
package neusight_bench

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"neusight/internal/experiments"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

// lab lazily builds the shared reduced-scale lab. Build time is excluded
// from individual benchmark timings via b.ResetTimer.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() { benchLab = experiments.NewLab(experiments.QuickLabConfig()) })
	return benchLab
}

// reportAvgError extracts a trailing percentage cell from the last rows and
// reports it as a custom benchmark metric.
func reportAvgError(b *testing.B, t *experiments.Table, col int, metric string) {
	b.Helper()
	for i := len(t.Rows) - 1; i >= 0; i-- {
		if strings.HasPrefix(t.Rows[i][0], "AVERAGE") {
			cell := strings.TrimSuffix(t.Rows[i][col], "%")
			if v, err := strconv.ParseFloat(cell, 64); err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

func runExperiment(b *testing.B, id string) []*experiments.Table {
	l := lab(b)
	b.ResetTimer()
	var tables []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Run(id, l)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// BenchmarkFig2PriorWorkBMM regenerates Figure 2: Habitat and Li et al.
// prediction error on BMM across dimensions and GPUs.
func BenchmarkFig2PriorWorkBMM(b *testing.B) {
	tables := runExperiment(b, "fig2")
	if len(tables) != 2 {
		b.Fatalf("fig2 produced %d tables", len(tables))
	}
}

// BenchmarkTable1LargerPredictors regenerates Table 1: bigger direct
// regressors (deeper MLPs, transformers) still failing out of distribution.
func BenchmarkTable1LargerPredictors(b *testing.B) {
	runExperiment(b, "table1")
}

// BenchmarkTable2Utilization regenerates Table 2: H100 compute utilization
// of the BERT-shaped GEMM across batch sizes.
func BenchmarkTable2Utilization(b *testing.B) {
	runExperiment(b, "table2")
}

// BenchmarkFig5WaveScaling regenerates Figure 5: throughput vs wave count
// on V100.
func BenchmarkFig5WaveScaling(b *testing.B) {
	runExperiment(b, "fig5")
}

// BenchmarkFig7EndToEnd regenerates Figure 7: end-to-end inference and
// training prediction error of NeuSight vs roofline/Habitat/Li et al.
// The reported neusight_avg_pct metric is the paper's headline number.
func BenchmarkFig7EndToEnd(b *testing.B) {
	tables := runExperiment(b, "fig7")
	reportAvgError(b, tables[0], 4, "neusight_infer_avg_pct")
	reportAvgError(b, tables[1], 4, "neusight_train_avg_pct")
}

// BenchmarkFig8PerOperator regenerates Figure 8: per-operator-type error.
func BenchmarkFig8PerOperator(b *testing.B) {
	runExperiment(b, "fig8")
}

// BenchmarkTable6Contribution regenerates Table 6: per-operator latency
// contribution on H100.
func BenchmarkTable6Contribution(b *testing.B) {
	runExperiment(b, "table6")
}

// BenchmarkFig9AMD regenerates Figure 9: cross-vendor prediction on the
// held-out MI250.
func BenchmarkFig9AMD(b *testing.B) {
	tables := runExperiment(b, "fig9")
	reportAvgError(b, tables[0], 4, "amd_infer_avg_pct")
	reportAvgError(b, tables[1], 4, "amd_train_avg_pct")
}

// BenchmarkTable7Fusion regenerates Table 7: fused-operator prediction.
func BenchmarkTable7Fusion(b *testing.B) {
	runExperiment(b, "table7")
}

// BenchmarkFig10FP16TensorCore regenerates Figure 10: FP16 tensor-core BMM
// prediction on H100.
func BenchmarkFig10FP16TensorCore(b *testing.B) {
	tables := runExperiment(b, "fig10")
	reportAvgError(b, tables[0], 4, "fp16_avg_pct")
}

// BenchmarkTable8Distributed regenerates Table 8: distributed training
// prediction on the 4-GPU servers.
func BenchmarkTable8Distributed(b *testing.B) {
	tables := runExperiment(b, "table8")
	reportAvgError(b, tables[0], 6, "distributed_avg_pct")
}

// BenchmarkTable9MultiNode regenerates Table 9: the multi-node GPT-3
// forecast.
func BenchmarkTable9MultiNode(b *testing.B) {
	runExperiment(b, "table9")
}

// BenchmarkLabBuild measures the full pipeline cost: dataset generation on
// five simulated GPUs plus training all five NeuSight MLPs and both
// baselines (the step every other benchmark amortizes).
func BenchmarkLabBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.NewLab(experiments.QuickLabConfig())
	}
}

// BenchmarkForecastOffline is the benchmark's forecast_offline workload as
// a go test benchmark, the paper's own use with no serving: one operation
// builds the graph of a Fig. 7 cell (the paper's per-model batch sizes × the
// 8 evaluation GPUs × {inference, training}, without the cells that do not
// fit the device) and forecasts it whole on a warm predictor.
func BenchmarkForecastOffline(b *testing.B) {
	l := lab(b)
	batches := map[string][]int{
		"BERT-Large": {8, 16}, "GPT2-Large": {4, 8}, "GPT3-XL": {2, 4},
		"OPT-1.3B": {2, 4}, "GPT3-2.7B": {2, 4}, "SwitchTrans": {4, 8},
	}
	var cells []func() error
	for _, m := range models.Table5() {
		for _, batch := range batches[m.Name] {
			for _, name := range []string{"P4", "P100", "V100", "T4", "A100-40GB", "A100-80GB", "L4", "H100"} {
				m, batch, g := m, batch, gpu.MustLookup(name)
				if m.FitsInMemory(batch, g, false) {
					cells = append(cells, func() error {
						_, _, err := l.NeuSight.PredictGraph(m.InferenceGraph(batch), g)
						return err
					})
				}
				if m.FitsInMemory(batch, g, true) {
					cells = append(cells, func() error {
						_, _, err := l.NeuSight.PredictGraph(m.TrainingGraph(batch), g)
						return err
					})
				}
			}
		}
	}
	for _, forecast := range cells { // warm the tile cache
		if err := forecast(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cells[i%len(cells)](); err != nil {
			b.Fatal(err)
		}
	}
}

// neusightService serves the lab's trained predictor in the default layout.
func neusightService(l *experiments.Lab) *serve.Service {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewCoreEngine(l.NeuSight))
	return serve.NewMulti(reg, predict.EngineNeuSight, serve.Config{})
}

// BenchmarkServeThroughput measures the serving layer (internal/serve)
// under a repeated workload from parallel clients, in the two shapes the
// caches are built for. kernel: the kernels of a BERT-Large inference
// graph queried round-robin one at a time — the LRU prediction cache's
// case; on repeats of a real graph the hit rate must be well above zero,
// since transformer layers reuse identical kernel shapes. graph: the same
// graph forecast whole — compiled into a plan, its distinct kernels read
// from the cache, the total folded per node. Both report sustained kernel
// predictions/sec (a graph counts every node) and the cache hit rate.
func BenchmarkServeThroughput(b *testing.B) {
	l := lab(b)
	g := gpu.MustLookup("H100")
	m, err := models.Lookup("BERT-Large")
	if err != nil {
		b.Fatal(err)
	}
	gr := m.InferenceGraph(2)
	ks := ks4bench(gr.Kernels())
	if len(ks) == 0 {
		b.Fatal("no predictable kernels in the benchmark graph")
	}
	report := func(b *testing.B, svc *serve.Service) {
		st := svc.Stats()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(st.Requests)/secs, "predictions/sec")
		}
		b.ReportMetric(st.HitRate*100, "cache_hit_pct")
		if b.N > len(ks) && st.HitRate == 0 {
			b.Errorf("cache hit rate = 0 after %d requests over %d unique kernels", st.Requests, len(ks))
		}
	}

	b.Run("kernel", func(b *testing.B) {
		svc := neusightService(l)
		var idx atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k := ks[int(idx.Add(1))%len(ks)]
				if _, err := svc.PredictKernelEngine(context.Background(), "", k, g); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, svc)
	})
	b.Run("graph", func(b *testing.B) {
		svc := neusightService(l)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := svc.PredictGraphEngine(context.Background(), "", gr, g); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, svc)
	})
}

// BenchmarkServeBatchThroughput measures the batched serving path: the
// kernels of a BERT-Large inference graph submitted as whole batches from
// parallel clients via Service.PredictBatchEngine. The first batches miss and are
// evaluated in one compiled forward pass per operator category; steady
// state serves from cache. Compare kernels/sec against the per-request
// predictions/sec of BenchmarkServeThroughput.
func BenchmarkServeBatchThroughput(b *testing.B) {
	l := lab(b)
	svc := neusightService(l)
	g := gpu.MustLookup("H100")
	m, err := models.Lookup("BERT-Large")
	if err != nil {
		b.Fatal(err)
	}
	ks := ks4bench(m.InferenceGraph(2).Kernels())
	if len(ks) == 0 {
		b.Fatal("no predictable kernels in the benchmark graph")
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			outs, err := svc.PredictBatchEngine(context.Background(), "", ks, g)
			if err != nil {
				b.Error(err)
				return
			}
			for _, out := range outs {
				if out.Err != nil {
					b.Error(out.Err)
					return
				}
			}
		}
	})
	b.StopTimer()

	st := svc.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.BatchedKernels)/secs, "kernels/sec")
	}
	b.ReportMetric(float64(len(ks)), "batch_size")
	b.ReportMetric(st.HitRate*100, "cache_hit_pct")
}

// ks4bench filters out network kernels, which the kernel predictor
// rejects by design.
func ks4bench(all []kernels.Kernel) []kernels.Kernel {
	var ks []kernels.Kernel
	for _, k := range all {
		if k.Category() != kernels.CatNetwork {
			ks = append(ks, k)
		}
	}
	return ks
}
