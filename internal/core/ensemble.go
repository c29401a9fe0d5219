package core

import (
	"fmt"
	"math"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

// Ensemble trains several independently-seeded NeuSight predictors and
// forecasts with their mean, exposing the spread as a confidence signal.
// The paper's artifact notes ~10% run-to-run variance in real DNN
// latencies; an ensemble tells the user when a forecast is fragile (high
// spread) versus converged (the members agree).
type Ensemble struct {
	members []*Predictor
}

// NewEnsemble builds size untrained members sharing tdb, each with a
// distinct seed derived from cfg.Seed.
func NewEnsemble(cfg Config, tdb *tile.DB, size int) *Ensemble {
	if size < 1 {
		panic("core: ensemble needs at least one member")
	}
	e := &Ensemble{}
	for i := 0; i < size; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1009
		e.members = append(e.members, NewPredictor(c, tdb))
	}
	return e
}

// Name implements the predictor naming convention.
func (e *Ensemble) Name() string { return fmt.Sprintf("NeuSight-Ensemble(%d)", len(e.members)) }

// Size returns the member count.
func (e *Ensemble) Size() int { return len(e.members) }

// Train fits every member on ds.
func (e *Ensemble) Train(ds *dataset.Dataset) {
	for _, m := range e.members {
		m.Train(ds)
	}
}

// PredictKernel returns the ensemble-mean forecast for k on g.
func (e *Ensemble) PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error) {
	mean, _, err := e.PredictKernelWithSpread(k, g)
	return mean, err
}

// PredictKernelWithSpread returns the mean and standard deviation of the
// members' forecasts.
func (e *Ensemble) PredictKernelWithSpread(k kernels.Kernel, g gpu.Spec) (mean, std float64, err error) {
	preds := make([]float64, 0, len(e.members))
	for _, m := range e.members {
		p, err := m.PredictKernel(k, g)
		if err != nil {
			return 0, 0, err
		}
		preds = append(preds, p)
	}
	for _, p := range preds {
		mean += p
	}
	mean /= float64(len(preds))
	for _, p := range preds {
		std += (p - mean) * (p - mean)
	}
	std = math.Sqrt(std / float64(len(preds)))
	return mean, std, nil
}

// PredictGraphWithSpread aggregates graph forecasts per member, returning
// the mean and standard deviation of the end-to-end latency.
func (e *Ensemble) PredictGraphWithSpread(gr *graph.Graph, g gpu.Spec) (mean, std float64) {
	pl := graph.Compile(gr)
	totals := make([]float64, len(e.members))
	for i, m := range e.members {
		totals[i], _, _ = m.PredictPlan(pl, g)
	}
	for _, t := range totals {
		mean += t
	}
	mean /= float64(len(totals))
	for _, t := range totals {
		std += (t - mean) * (t - mean)
	}
	std = math.Sqrt(std / float64(len(totals)))
	return mean, std
}
