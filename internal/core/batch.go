package core

import (
	"fmt"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/mat"
	"neusight/internal/tile"
)

// PredictKernels forecasts the latency of every kernel in ks on device g in
// milliseconds, amortizing the model evaluation across the batch: kernels
// are grouped by operator category, each group is featurized into a single
// batch matrix, normalized in one pass, and pushed through one compiled
// forward pass. A transformer graph's worth of kernels therefore costs a
// handful of matmuls instead of thousands of independent model walks.
//
// Results are positional: lats[i] and errs[i] correspond to ks[i].
// Per-item failures (network kernels, untrained categories) populate
// errs[i] without disturbing the rest of the batch; memory-bound kernels
// get their closed-form fallback. Each prediction is bit-identical to what
// PredictKernel returns for the same kernel.
func (p *Predictor) PredictKernels(ks []kernels.Kernel, g gpu.Spec) (lats []float64, errs []error) {
	lats, _, errs = p.PredictKernelsDetail(ks, g)
	return lats, errs
}

// PredictKernelsDetail is PredictKernels plus the bounded utilization
// behind each forecast (0 for memory-bound fallbacks), mirroring
// PredictKernelDetail batch-wide. It is the batch entry point of the
// predict.Engine adapter.
func (p *Predictor) PredictKernelsDetail(ks []kernels.Kernel, g gpu.Spec) (lats, utils []float64, errs []error) {
	lats = make([]float64, len(ks))
	utils = make([]float64, len(ks))
	errs = make([]error, len(ks))

	// Group batch positions by category, a counting sort: order holds the
	// positions into ks, category by category, and category cat is rows
	// start[cat]:start[cat+1] of it and of every per-row buffer below.
	var start [kernels.CatNetwork + 2]int
	for i := range ks {
		start[ks[i].Category()+1]++
	}
	for cat := 1; cat < len(start); cat++ {
		start[cat] += start[cat-1]
	}
	order := make([]int, len(ks))
	next := start
	for i := range ks {
		cat := ks[i].Category()
		order[next[cat]] = i
		next[cat]++
	}
	for _, i := range order[start[kernels.CatNetwork]:] {
		errs[i] = fmt.Errorf("core: network kernel %s must be predicted by the network model", ks[i].Label())
	}

	v := p.cur.Load() // one model for the whole batch
	rows := make([]batchRow, start[kernels.CatNetwork])
	X := make([]float64, len(rows)*NumFeatures)
	H := make([]float64, len(rows)*2)
	for cat := kernels.Category(0); cat < kernels.CatNetwork; cat++ {
		lo, hi := start[cat], start[cat+1]
		if lo == hi {
			continue
		}
		m := v.cats[cat]
		if m == nil {
			for _, i := range order[lo:hi] {
				if cat == kernels.CatMemoryBound {
					lats[i] = MemBoundLatency(ks[i], g)
				} else {
					errs[i] = fmt.Errorf("%w %v", ErrUntrained, cat)
				}
			}
			continue
		}

		// Featurize the whole group into one batch matrix. Once serving is
		// warm every tile is a memo hit, resolved here; on a cold memo the
		// O(records) nearest-match scans dominate the batch, not the
		// forward pass they feed, so those — and only those — fan out.
		var cold []int
		for r := lo; r < hi; r++ {
			var warm bool
			if rows[r].t, warm = p.TileDB.Memoized(&ks[order[r]], g); !warm {
				cold = append(cold, r)
			}
		}
		if len(cold) > 0 {
			p.resolveTiles(ks, g, order, rows, cold)
		}
		x := mat.Matrix{Rows: hi - lo, Cols: NumFeatures, Data: X[lo*NumFeatures : hi*NumFeatures]}
		for r := lo; r < hi; r++ {
			k := &ks[order[r]]
			c, waves := latencyConstant(*k, g, rows[r].t)
			rows[r].c, rows[r].waves = c, float64(waves)
			f := x.Row(r - lo)
			featuresInto(f, k, g, rows[r].t, waves)
			m.stats.applyInPlace(f)
		}
		// One compiled forward pass for the whole group.
		heads := mat.Matrix{Rows: hi - lo, Cols: 2, Data: H[lo*2 : hi*2]}
		m.compiled.ForwardInto(&heads, &x)
		for r := lo; r < hi; r++ {
			i := order[r]
			utils[i] = utilScalar(H[2*r], H[2*r+1], rows[r].waves)
			lats[i] = rows[r].c / utils[i]
		}
	}
	return lats, utils, errs
}

// batchRow is what PredictKernelsDetail holds per kernel between resolving
// its tile and reading its heads.
type batchRow struct {
	t        tile.Tile
	c, waves float64
}

// resolveTiles resolves the tiles of the cold rows concurrently, through
// the single-flight tile memo, so repeated shapes in a batch pay for one
// scan.
func (p *Predictor) resolveTiles(ks []kernels.Kernel, g gpu.Spec, order []int, rows []batchRow, cold []int) {
	mat.ParallelFor(len(cold), func(lo, hi int) {
		for _, r := range cold[lo:hi] {
			rows[r].t = p.TileDB.LookupOrSelect(ks[order[r]], g)
		}
	})
}
