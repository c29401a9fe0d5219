package core

import (
	"neusight/internal/dataset"
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
// the base training set for that category (so a small observation window
// still moves the model), merged with the base samples, and each affected
// category is retrained off to the side. The retrained categories are then
// published as one version over the untouched ones — the same publish and
// single generation step as offline training, so no forecast mixes old and
// new categories, and cache-key versioning and cluster gossip invalidate
// stale forecasts for free.
//
// base is the offline training set to retain (nil trains on the
// calibration samples alone, e.g. a process started from -model without
// its dataset). Calibration samples need no tiles: featurization resolves
// missing tiles through the predictor's tile DB. Categories without a
// trained MLP and without calibration samples are untouched.
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

	trained := map[kernels.Category]*catModel{}
	for _, cat := range trainedCats {
		obs := byCat[cat]
		if len(obs) == 0 {
			continue
		}
		merged := &dataset.Dataset{}
		if base != nil {
			merged.Samples = append(merged.Samples, base.FilterCategory(cat).Samples...)
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
		trained[cat], rep.Loss[cat] = p.trainCategory(cat, merged)
		rep.Trained[cat] = len(obs)
	}
	p.publish(trained)
	return rep
}

func isTrainedCat(cat kernels.Category) bool {
	for _, c := range trainedCats {
		if c == cat {
			return true
		}
	}
	return false
}
