package main

import (
	"flag"
	"fmt"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/tile"
)

func train(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset CSV produced by datagen")
	outPath := fs.String("out", "neusight-model.json", "output predictor path")
	tilePath := fs.String("tiles", "tiles.json", "tile database path (read if present, else rebuilt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("train: -data is required")
	}
	ds, err := dataset.LoadCSV(*dataPath)
	if err != nil {
		return err
	}
	tdb, err := tile.LoadDB(*tilePath)
	if err != nil {
		// Rebuild the tile database from the dataset's recorded tiles.
		tdb = tile.NewDB()
		for _, s := range ds.Samples {
			tdb.Add(s.Kernel, s.GPU, s.Tile)
		}
		if err := tdb.Save(*tilePath); err != nil {
			return err
		}
	}
	p := core.NewPredictor(core.DefaultConfig(), tdb)
	rep := p.Train(ds)
	for cat, l := range rep.FinalLoss {
		fmt.Printf("trained %-8v on %6d samples, final SMAPE %.3f\n", cat, rep.Samples[cat], l)
	}
	return p.Save(*outPath)
}
