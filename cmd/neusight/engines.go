package main

import (
	"fmt"

	"neusight/internal/baselines"
	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpusim"
	"neusight/internal/predict"
)

// engineSpec is one row of the standard non-neusight engine wiring: how to
// construct the engine and how to prepare its training set. The neusight
// engine is special-cased everywhere — it wraps whichever core predictor
// the command loaded or trained.
type engineSpec struct {
	name  string
	build func() predict.Engine
	// prep trims the training set for engines with expensive fits; nil
	// means train on the full dataset. Consulted only for Trainable engines.
	prep func(ds *dataset.Dataset) *dataset.Dataset
}

// engineSpecs is the single name -> constructor table behind `engines`,
// `-engine` forecasts, and `serve -quick`: adding an engine here makes it
// listable, buildable, and servable at once instead of requiring four
// coordinated switch edits.
func engineSpecs() []engineSpec {
	cfg := quickDirectConfig()
	trCfg := cfg
	trCfg.Epochs = 8 // transformers train sample-by-sample; bound the budget
	return []engineSpec{
		{name: predict.EngineRoofline,
			build: func() predict.Engine { return predict.NewRooflineEngine() }},
		{name: predict.EngineGPUSim,
			build: func() predict.Engine { return predict.NewSimEngine(gpusim.New()) }},
		{name: predict.EngineHabitat,
			build: func() predict.Engine { return predict.NewHabitatEngine(baselines.NewHabitat(cfg, gpusim.New())) }},
		{name: predict.EngineLiRegression,
			build: func() predict.Engine { return predict.NewLiEngine(baselines.NewLiRegression()) }},
		{name: predict.EngineDirectMLP,
			build: func() predict.Engine { return predict.NewDirectMLPEngine(baselines.NewDirectMLP(cfg)) }},
		{name: predict.EngineDirectTransformer,
			build: func() predict.Engine {
				return predict.NewDirectTransformerEngine(baselines.NewDirectTransformer(trCfg, 2))
			},
			prep: func(ds *dataset.Dataset) *dataset.Dataset {
				if len(ds.Samples) > 1500 {
					return &dataset.Dataset{Samples: ds.Samples[:1500]}
				}
				return ds
			}},
	}
}

// findEngineSpec looks a standard engine up by name.
func findEngineSpec(name string) (engineSpec, bool) {
	for _, spec := range engineSpecs() {
		if spec.name == name {
			return spec, true
		}
	}
	return engineSpec{}, false
}

// trainEngineSpec fits a Trainable engine to ds, applying the spec's
// training-set preparation.
func trainEngineSpec(tr predict.Trainable, spec engineSpec, ds *dataset.Dataset) error {
	if spec.prep != nil {
		ds = spec.prep(ds)
	}
	return tr.Train(ds)
}

// untrainedRegistry registers one instance of every standard engine without
// training any of them — the registry shape `neusight engines` lists and
// the conformance suite checks.
func untrainedRegistry() *predict.Registry {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewCoreEngine(core.NewPredictor(core.DefaultConfig(), nil)))
	for _, spec := range engineSpecs() {
		reg.MustRegister(spec.build())
	}
	return reg
}

// quickDirectConfig sizes the in-process baseline training runs used by
// -engine forecasts and `serve -quick`.
func quickDirectConfig() baselines.DirectConfig {
	return baselines.DirectConfig{Hidden: 32, Layers: 2, Epochs: 20, BatchSize: 128, LR: 3e-3, Seed: 7}
}

// buildAltEngine constructs a non-default engine for a one-off CLI
// forecast. The analytical and simulator engines are free; the trainable
// baselines are fitted to an in-process generated dataset first (they have
// no on-disk format — they exist for comparison, not production serving).
func buildAltEngine(name string) (predict.Engine, error) {
	for _, spec := range engineSpecs() {
		if spec.name != name {
			continue
		}
		eng := spec.build()
		tr, ok := eng.(predict.Trainable)
		if !ok {
			return eng, nil
		}
		fmt.Printf("training engine %s on simulated profiling data...\n", name)
		ds, _ := quickDataset()
		return eng, trainEngineSpec(tr, spec, ds)
	}
	return nil, fmt.Errorf("unknown engine %q (see `neusight engines`)", name)
}
