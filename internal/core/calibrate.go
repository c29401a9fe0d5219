package core

import (
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// calibMaxReplication caps how many times a calibration sample is
// replicated to balance it against the base training set — a tiny window
// of observations must not be inflated into the entire gradient signal.
const calibMaxReplication = 64

// CalibrationReport summarizes one Calibrate call.
type CalibrationReport struct {
	// Trained maps each retrained category to the number of distinct
	// calibration samples folded into its training set.
	Trained map[kernels.Category]int
	// Skipped counts calibration samples outside the trained categories or
	// with non-positive latency.
	Skipped int
	// Loss is the final training loss per retrained category.
	Loss map[kernels.Category]float64
}

// Calibrate folds observed latencies back into the predictor: calibration
// samples are grouped by kernel category, replicated to rough parity with
// a base set for that category (so a small observation window still moves
// the model), merged with it, and each affected category is retrained off
// to the side. The retrained categories are then published as one version
// over the untouched ones — the same publish and single generation step as
// offline training, so no forecast mixes old and new categories, and
// cache-key versioning and cluster gossip invalidate stale forecasts for
// free.
//
// base is the offline training set to retain: each category is then
// retrained from scratch on its base samples and the window. With base nil
// (a process started from -model, its training set long gone) the current
// model is the base instead: a trained category is fine-tuned from its
// current weights and feature normalization, and its base set is the
// model's own forecasts for the window's kernels on every GPU the window
// did not observe. The window then moves the GPUs it observed; the
// others share the category's MLP and still move, but far less than under
// a retrain on a few dozen samples.
//
// Calibration samples need no tiles: featurization resolves missing tiles
// through the predictor's tile DB. Categories without a trained MLP and
// without calibration samples are untouched.
func (p *Predictor) Calibrate(base *dataset.Dataset, calib []dataset.Sample) CalibrationReport {
	rep := CalibrationReport{
		Trained: map[kernels.Category]int{},
		Loss:    map[kernels.Category]float64{},
	}
	byCat := map[kernels.Category][]dataset.Sample{}
	for _, s := range calib {
		cat := s.Kernel.Category()
		if !isTrainedCat(cat) || !(s.Latency > 0) {
			rep.Skipped++
			continue
		}
		byCat[cat] = append(byCat[cat], s)
	}

	cur := p.cur.Load()
	trained := map[kernels.Category]*catModel{}
	for _, cat := range trainedCats {
		obs := byCat[cat]
		if len(obs) == 0 {
			continue
		}
		merged := &dataset.Dataset{}
		var from *catModel
		if base != nil {
			merged.Samples = append(merged.Samples, base.FilterCategory(cat).Samples...)
		} else if from = cur.cats[cat]; from != nil {
			merged.Samples = p.rehearsal(from, obs)
		}
		reps := 1
		if n := len(merged.Samples); n > len(obs) {
			reps = n / len(obs)
			if reps > calibMaxReplication {
				reps = calibMaxReplication
			}
		}
		for i := 0; i < reps; i++ {
			merged.Samples = append(merged.Samples, obs...)
		}
		trained[cat], rep.Loss[cat] = p.trainCategory(cat, merged, from)
		rep.Trained[cat] = len(obs)
	}
	p.publish(trained)
	return rep
}

// rehearsal is the base set a fine-tune from m keeps: m's forecast for
// each observed kernel on every GPU that obs does not observe.
func (p *Predictor) rehearsal(m *catModel, obs []dataset.Sample) []dataset.Sample {
	observed := map[string]bool{}
	for _, s := range obs {
		observed[s.GPU.Name] = true
	}
	var out []dataset.Sample
	for _, s := range obs {
		for _, g := range gpu.All() {
			if !observed[g.Name] {
				c, util := p.compiledEval(m, s.Kernel, g)
				out = append(out, dataset.Sample{Kernel: s.Kernel, GPU: g, Latency: c / util})
			}
		}
	}
	return out
}

func isTrainedCat(cat kernels.Category) bool {
	for _, c := range trainedCats {
		if c == cat {
			return true
		}
	}
	return false
}
