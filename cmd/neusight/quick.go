package main

import (
	"flag"
	"fmt"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/predict"
	"neusight/internal/tile"
)

func quick(args []string) error {
	fs := flag.NewFlagSet("quick", flag.ExitOnError)
	workload := fs.String("workload", "GPT3-XL", "workload name (see list-models)")
	gpuName := fs.String("gpu", "H100", "target GPU (see list-gpus)")
	batch := fs.Int("batch", 2, "batch size")
	trainMode := fs.Bool("train", false, "forecast a training iteration instead of inference")
	fused := fs.Bool("fused", false, "apply the operator-fusion pass first")
	engineName := fs.String("engine", predict.EngineNeuSight, "prediction engine (see `neusight engines`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineName != predict.EngineNeuSight {
		eng, err := buildAltEngine(*engineName)
		if err != nil {
			return err
		}
		return forecastEngine(eng, *workload, *gpuName, *batch, *trainMode, *fused, false)
	}
	fmt.Println("profiling simulated training GPUs and training a reduced predictor...")
	return forecast(quickPredictor(), *workload, *gpuName, *batch, *trainMode, *fused)
}

// quickDataset profiles the simulated training GPUs into a reduced dataset
// — the shared input of every in-process engine training.
func quickDataset() (*dataset.Dataset, *tile.DB) {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 42, BMM: 300, FC: 150, EW: 120, Softmax: 60, LN: 60,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	return ds, tdb
}

// quickCoreConfig sizes the reduced in-process NeuSight training run —
// the one configuration behind both `quick` and `serve -quick`.
func quickCoreConfig() core.Config {
	return core.Config{Hidden: 48, Layers: 3, Epochs: 40, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 42}
}

// quickPredictor profiles the simulated training GPUs and trains a reduced
// in-process predictor — shared by the quick and serve subcommands.
func quickPredictor() *core.Predictor {
	ds, tdb := quickDataset()
	p := core.NewPredictor(quickCoreConfig(), tdb)
	p.Train(ds)
	return p
}
