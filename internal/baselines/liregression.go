package baselines

import (
	"fmt"
	"sort"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// LiRegression reproduces Li et al. (MICRO'23): for each training GPU, a
// linear regression between kernel FLOP count and measured latency; across
// GPUs, a linear regression between memory bandwidth and achieved FLOPS
// used to extrapolate the per-GPU line to devices outside the training set.
// Regressions are per operator category (the paper fits per kernel type).
type LiRegression struct {
	// perGPU[cat][gpuName] = fitted (secPerFLOP, interceptMs).
	perGPU map[kernels.Category]map[string]line
	// crossGPU[cat] regresses achieved FLOP/ms (1/slope) and intercept on
	// memory bandwidth.
	crossGPU map[kernels.Category]crossFit
}

type line struct {
	slope     float64 // ms per FLOP
	intercept float64 // ms
}

type crossFit struct {
	// achieved = aAch*bw + bAch (FLOP per ms); intercept = aInt*bw + bInt.
	aAch, bAch float64
	aInt, bInt float64
	fitted     bool
}

// NewLiRegression returns an unfitted baseline.
func NewLiRegression() *LiRegression {
	return &LiRegression{
		perGPU:   map[kernels.Category]map[string]line{},
		crossGPU: map[kernels.Category]crossFit{},
	}
}

// Name identifies the predictor in reports.
func (l *LiRegression) Name() string { return "LiEtAl" }

// Train fits per-GPU FLOPs->latency lines and the cross-GPU bandwidth
// extrapolation.
func (l *LiRegression) Train(ds *dataset.Dataset) {
	// Group samples by (category, gpu).
	type key struct {
		cat kernels.Category
		gpu string
	}
	groups := map[key][]dataset.Sample{}
	specs := map[string]gpu.Spec{}
	for _, s := range ds.Samples {
		k := key{s.Kernel.Category(), s.GPU.Name}
		groups[k] = append(groups[k], s)
		specs[s.GPU.Name] = s.GPU
	}
	for k, samples := range groups {
		var xs, ys []float64
		for _, s := range samples {
			xs = append(xs, s.Kernel.FLOPs())
			ys = append(ys, s.Latency)
		}
		slope, intercept := leastSquares(xs, ys)
		if slope <= 0 {
			// Degenerate fit (can happen with tiny sample groups):
			// force a positive slope through the mean point.
			slope = mean(ys) / maxf(mean(xs), 1)
			intercept = 0
		}
		if l.perGPU[k.cat] == nil {
			l.perGPU[k.cat] = map[string]line{}
		}
		l.perGPU[k.cat][k.gpu] = line{slope: slope, intercept: intercept}
	}
	// Cross-GPU: achieved FLOP/ms and intercept vs bandwidth, in name order.
	for cat, byGPU := range l.perGPU {
		names := make([]string, 0, len(byGPU))
		for name := range byGPU {
			names = append(names, name)
		}
		sort.Strings(names)
		var bws, achieved, intercepts []float64
		for _, name := range names {
			ln := byGPU[name]
			bws = append(bws, specs[name].MemoryBWGBs)
			achieved = append(achieved, 1/ln.slope)
			intercepts = append(intercepts, ln.intercept)
		}
		if len(bws) < 2 {
			continue
		}
		aA, bA := leastSquares(bws, achieved)
		aI, bI := leastSquares(bws, intercepts)
		l.crossGPU[cat] = crossFit{aAch: aA, bAch: bA, aInt: aI, bInt: bI, fitted: true}
	}
}

// PredictKernel forecasts latency in milliseconds: the fitted line for
// training GPUs, the bandwidth-extrapolated line otherwise.
func (l *LiRegression) PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error) {
	cat := k.Category()
	if cat == kernels.CatNetwork {
		return 0, fmt.Errorf("baselines: li et al. does not model network kernels")
	}
	if byGPU, ok := l.perGPU[cat]; ok {
		if ln, ok := byGPU[g.Name]; ok {
			return positive(ln.slope*k.FLOPs() + ln.intercept), nil
		}
	}
	cf, ok := l.crossGPU[cat]
	if !ok || !cf.fitted {
		// No fit for this category: fall back to any GEMM fit, else error.
		if gemm, ok := l.crossGPU[kernels.CatBMM]; ok && gemm.fitted {
			cf = gemm
		} else {
			return 0, fmt.Errorf("baselines: li et al. not trained for %v", cat)
		}
	}
	achieved := cf.aAch*g.MemoryBWGBs + cf.bAch // FLOP per ms
	if achieved <= 0 {
		achieved = cf.bAch
	}
	if achieved <= 0 {
		return 0, fmt.Errorf("baselines: li et al. extrapolation degenerate for %s", g.Name)
	}
	intercept := cf.aInt*g.MemoryBWGBs + cf.bInt
	return positive(k.FLOPs()/achieved + intercept), nil
}

// leastSquares fits y = slope*x + intercept.
func leastSquares(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	mx, my := mean(xs), mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, my
	}
	return num / den, my - num/den*mx
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// positive floors predictions at a microsecond — a regression line can dip
// below zero for tiny kernels.
func positive(v float64) float64 {
	if v < 1e-3 {
		return 1e-3
	}
	return v
}
