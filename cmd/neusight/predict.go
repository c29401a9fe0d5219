package main

import (
	"context"
	"flag"
	"fmt"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/predict"
	"neusight/internal/report"
	"neusight/internal/tile"
)

func predictCmd(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "neusight-model.json", "trained predictor path")
	tilePath := fs.String("tiles", "tiles.json", "tile database path")
	workload := fs.String("workload", "GPT3-XL", "workload name (see list-models)")
	gpuName := fs.String("gpu", "H100", "target GPU (see list-gpus)")
	batch := fs.Int("batch", 2, "batch size")
	trainMode := fs.Bool("train", false, "forecast a training iteration instead of inference")
	fused := fs.Bool("fused", false, "apply the operator-fusion pass first")
	breakdown := fs.Bool("breakdown", false, "print per-category and per-kernel breakdown")
	engineName := fs.String("engine", predict.EngineNeuSight,
		"prediction engine (see `neusight engines`); trainable non-neusight engines are fitted in-process on simulated profiling data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineName != predict.EngineNeuSight {
		eng, err := buildAltEngine(*engineName)
		if err != nil {
			return err
		}
		return forecastEngine(eng, *workload, *gpuName, *batch, *trainMode, *fused, *breakdown)
	}
	tdb, err := tile.LoadDB(*tilePath)
	if err != nil {
		return err
	}
	p, err := core.Load(*modelPath, tdb)
	if err != nil {
		return err
	}
	return forecastOpts(p, *workload, *gpuName, *batch, *trainMode, *fused, *breakdown)
}

func forecast(p *core.Predictor, workload, gpuName string, batch int, trainMode, fused bool) error {
	return forecastOpts(p, workload, gpuName, batch, trainMode, fused, false)
}

func forecastOpts(p *core.Predictor, workload, gpuName string, batch int, trainMode, fused, breakdown bool) error {
	return forecastEngine(predict.NewCoreEngine(p), workload, gpuName, batch, trainMode, fused, breakdown)
}

// forecastEngine forecasts a registered workload with any engine. Engines
// with a whole-graph path (neusight) use it; others sum their per-kernel
// batch forecasts with the memory-bound fallback for operators the engine
// cannot model — the same aggregation the experiment harness applies.
func forecastEngine(eng predict.Engine, workload, gpuName string, batch int, trainMode, fused, breakdown bool) error {
	m, err := models.Lookup(workload)
	if err != nil {
		return err
	}
	g, err := gpu.Lookup(gpuName)
	if err != nil {
		return err
	}
	gr := m.InferenceGraph(batch)
	mode := "inference (first token)"
	if trainMode {
		gr = m.TrainingGraph(batch)
		mode = "training iteration (fwd+bwd)"
	}
	if fused {
		gr = graph.Fuse(gr)
		mode += ", fused"
	}
	ctx := context.Background()
	var lat float64
	var rep core.GraphReport
	if gp, ok := eng.(predict.GraphPredictor); ok {
		lat, rep, _ = gp.PredictGraph(ctx, gr, g)
	} else {
		lat, rep, _ = predict.PredictGraphKernels(ctx, eng, gr.Kernels(), g)
	}
	fmt.Printf("%s on %s, batch %d, %s\n", m.Name, g.Name, batch, mode)
	fmt.Printf("engine: %s\n", eng.Name())
	fmt.Printf("kernels: %d   total FLOPs: %.3g   predicted latency: %.1f ms\n",
		len(gr.Nodes), gr.TotalFLOPs(), lat)
	if rep.Fallbacks > 0 {
		fmt.Printf("note: %d kernels outside the engine's coverage used the memory-bound estimate\n", rep.Fallbacks)
	}
	if !m.FitsInMemory(batch, g, trainMode) {
		fmt.Printf("warning: estimated footprint %.1f GB exceeds %s memory (%.0f GB) — real execution would OOM\n",
			m.MemoryBytes(batch, trainMode)/1e9, g.Name, g.MemoryGB)
	}
	if breakdown {
		b := report.Analyze(gr, func(k kernels.Kernel) float64 {
			res, err := eng.PredictKernel(ctx, predict.Request{Kernel: k, GPU: g})
			if err != nil {
				return core.MemBoundLatency(k, g)
			}
			return res.Latency
		}, 8)
		fmt.Println()
		fmt.Print(b.Render())
	}
	return nil
}
