// Package core implements NeuSight, the paper's primary contribution: a
// forecasting framework that predicts deep-learning kernel latency on GPUs
// it has never run on.
//
// Instead of regressing latency directly (the failure mode of prior work,
// Section 3), NeuSight:
//
//  1. decomposes each kernel into the tiles the GPU library actually
//     schedules (Eq. 2) and the waves they execute in (Eq. 3);
//  2. asks a small per-operator-category MLP for the coefficients of a
//     utilization law, util = alpha - beta/waves (Eq. 7-8), with sigmoid
//     bounding utilization below 1;
//  3. converts utilization to latency through the roofline performance law
//     (Eq. 1, 5, 6), so predictions can never exceed physical limits;
//  4. aggregates tile -> kernel -> graph under the sequential-execution
//     model (Section 5).
//
// Training backpropagates a SMAPE loss through the latency equations into
// the MLP weights using the internal autodiff engine, exactly mirroring the
// paper's end-to-end formulation.
package core

import (
	"fmt"
	"math"

	ad "neusight/internal/autodiff"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/nn"
	"neusight/internal/tile"
)

// NumFeatures is the size of the Table 3 input feature vector.
const NumFeatures = 5

// utilFloor keeps the utilization law away from zero so latency stays
// finite during training and prediction.
const utilFloor = 0.01

// Features computes the Table 3 input features for one tile of kernel k on
// device g, given the tile and wave decomposition. Features are per-SM
// resource utilization ratios, log-compressed for conditioning (the raw
// ratios span many orders of magnitude).
func Features(k kernels.Kernel, g gpu.Spec, t tile.Tile, waves int) []float64 {
	f := make([]float64, NumFeatures)
	featuresInto(f, &k, g, t, waves)
	return f
}

// featuresInto writes Features into f, a row of NumFeatures.
func featuresInto(f []float64, k *kernels.Kernel, g gpu.Spec, t tile.Tile, waves int) {
	numTiles := tile.NumTiles(k.OutputDims(), t)
	flopsTile := k.FLOPs() / float64(numTiles)
	memTile := k.MemBytes() / float64(numTiles)

	fp16 := k.DType == kernels.FP16
	peak := g.PeakFLOPSFor(fp16) * 1e12
	bw := g.MemoryBWGBs * 1e9
	sms := float64(g.SMs)

	perSMPeak := peak / sms
	perSMBW := bw / sms
	perSML2 := g.L2CacheMB * 1e6 / sms
	perSMMem := g.MemoryGB * 1e9 / sms

	w := float64(waves)
	f = f[:NumFeatures]
	f[0] = flopsTile / perSMPeak               // compute seconds per tile
	f[1] = memTile / perSMBW                   // memory seconds per tile
	f[2] = w * memTile / perSML2               // L2 pressure across waves
	f[3] = w * memTile / perSMMem              // HBM footprint across waves
	f[4] = (flopsTile / memTile) / (peak / bw) // intensity vs machine balance
	for i, v := range f {
		f[i] = math.Log(math.Max(v, 1e-12))
	}
}

// RooflineBW evaluates Eq. 1: the maximum achievable throughput of k on g
// in FLOP/s, min(K x memBW_peak, FLOPS_peak).
func RooflineBW(k kernels.Kernel, g gpu.Spec) float64 {
	fp16 := k.DType == kernels.FP16
	peak := g.PeakFLOPSFor(fp16) * 1e12
	bw := g.MemoryBWGBs * 1e9
	ai := k.ArithmeticIntensity()
	return math.Min(ai*bw, peak)
}

// latencyConstant returns c such that predicted latency (ms) = c / util:
// waves x flopsPerTile / roofline, scaled to milliseconds (Eq. 4-6).
func latencyConstant(k kernels.Kernel, g gpu.Spec, t tile.Tile) (c float64, waves int) {
	numTiles := tile.NumTiles(k.OutputDims(), t)
	waves = tile.NumWaves(numTiles, g.SMs)
	flopsTile := k.FLOPs() / float64(numTiles)
	roofline := RooflineBW(k, g)
	// The roofline is a whole-device rate; one wave uses all SMs, so the
	// per-wave latency is tile FLOPs over the per-SM share of roofline.
	perSM := roofline / float64(g.SMs)
	c = flopsTile / perSM * float64(waves) * 1e3
	return c, waves
}

// MemBoundLatency is the fallback estimate for operators without a trained
// predictor (paper Section 4.3): memory traffic over peak bandwidth.
func MemBoundLatency(k kernels.Kernel, g gpu.Spec) float64 {
	return k.MemBytes() / (g.MemoryBWGBs * 1e9) * 1e3
}

// featureStats holds per-dimension normalization fitted on training data.
type featureStats struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

func fitStats(rows [][]float64) featureStats {
	st := featureStats{Mean: make([]float64, NumFeatures), Std: make([]float64, NumFeatures)}
	n := float64(len(rows))
	for _, r := range rows {
		for j, v := range r {
			st.Mean[j] += v
		}
	}
	for j := range st.Mean {
		st.Mean[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - st.Mean[j]
			st.Std[j] += d * d
		}
	}
	for j := range st.Std {
		st.Std[j] = math.Sqrt(st.Std[j]/n) + 1e-8
	}
	return st
}

func (st featureStats) apply(row []float64) []float64 {
	out := make([]float64, len(row))
	copy(out, row)
	st.applyInPlace(out)
	return out
}

// applyInPlace normalizes row in place — the allocation-free form of apply
// used by the compiled prediction path.
func (st featureStats) applyInPlace(row []float64) {
	for j, v := range row {
		row[j] = (v - st.Mean[j]) / st.Std[j]
	}
}

// ErrUntrained is returned when predicting a category that has no trained
// MLP and no memory-bound fallback applies.
var ErrUntrained = fmt.Errorf("core: predictor not trained for category")

// trainedCats enumerates the five categories with dedicated MLPs.
var trainedCats = []kernels.Category{
	kernels.CatBMM, kernels.CatLinear, kernels.CatElementwise,
	kernels.CatSoftmax, kernels.CatLayerNorm,
}

// utilFromHeads converts the two MLP head outputs into the bounded
// utilization of Eq. 7-8 as an autodiff expression. waves is a per-sample
// constant column.
func utilFromHeads(heads *ad.Value, waves *ad.Value) *ad.Value {
	alpha := ad.Sigmoid(ad.SliceCols(heads, 0, 1))
	beta := ad.Sigmoid(ad.SliceCols(heads, 1, 2))
	util := ad.Sub(alpha, ad.Div(beta, waves))
	return ad.ClampMin(util, utilFloor)
}

// utilScalar is the scalar form of utilFromHeads used by the compiled
// inference path: sigmoid-bounded alpha and beta, the wave law, and the
// utilization floor, applied to one sample's raw heads. The formulas match
// the autodiff ops exactly, so compiled predictions are bit-identical to
// the expression training differentiates.
func utilScalar(h0, h1, waves float64) float64 {
	alpha := nn.SigmoidScalar(h0)
	beta := nn.SigmoidScalar(h1)
	return math.Max(alpha-beta/waves, utilFloor)
}

// sampleTensors extracts the per-sample training tensors for one category:
// normalized features X, latency constants c, waves w, and targets y.
func sampleTensors(samples []dataset.Sample, tdb *tile.DB, st *featureStats) (X, c, w, y [][]float64) {
	for _, s := range samples {
		t := s.Tile
		if len(t.Dims) == 0 {
			t = tdb.LookupOrSelect(s.Kernel, s.GPU)
		}
		cc, waves := latencyConstant(s.Kernel, s.GPU, t)
		f := Features(s.Kernel, s.GPU, t, waves)
		if st != nil {
			f = st.apply(f)
		}
		X = append(X, f)
		c = append(c, []float64{cc})
		w = append(w, []float64{float64(waves)})
		y = append(y, []float64{s.Latency})
	}
	return X, c, w, y
}
