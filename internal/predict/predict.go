// Package predict defines the engine abstraction every latency forecaster
// in the framework speaks. The paper's evaluation is comparative — NeuSight's
// tile-level ML predictor against Habitat-style MLPs, Li-style regression,
// and roofline bounds — yet each of those backends grew its own calling
// convention. An Engine normalizes them behind one contract:
//
//   - requests and results are structured (Request{Kernel, GPU} in,
//     Result{Latency, Utilization, Engine, Source} out) instead of
//     positional arguments and bare floats;
//   - the batch path is first-class (PredictKernels), so backends that can
//     amortize one model evaluation across a batch expose that without the
//     serving layer duck-typing for it;
//   - context flows through every call, so serving traffic can cancel work
//     it no longer needs.
//
// Optional capabilities — training, persistence, whole-graph forecasting,
// state generations for cache invalidation, native batching, placement
// affinity — are separate interfaces an engine implements only when its
// backend supports them. The Registry holds the engine set a process
// serves, registered at start-up, turning "which predictor answers this
// request" into per-request routing instead of a compile-time decision.
package predict

import (
	"context"
	"fmt"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
)

// Request is one kernel-latency question: how long does Kernel take on GPU?
type Request struct {
	Kernel kernels.Kernel
	GPU    gpu.Spec
}

// Result is an engine's answer to a Request.
type Result struct {
	// Latency is the forecast kernel latency in milliseconds.
	Latency float64
	// Utilization is the fraction of the device's peak the forecast assumes,
	// in (0, 1], when the engine exposes one; 0 when it does not (direct
	// regression engines predict latency without a utilization model).
	Utilization float64
	// Engine is the name of the engine that produced the forecast.
	Engine string
	// Source classifies how the forecast was produced (see the Source*
	// constants) — e.g. a learned model versus a closed-form bound.
	Source string
}

// Outcome pairs a Result with its error for positional batch replies:
// outcomes[i] answers reqs[i], and a failed item reports in place without
// disturbing its neighbors.
type Outcome struct {
	Result Result
	Err    error
}

// Source classifications for Result.Source.
const (
	// SourceModel marks forecasts from the learned tile/utilization pipeline.
	SourceModel = "model"
	// SourceRegression marks forecasts from fitted regressors (direct MLPs,
	// transformers, per-GPU linear fits).
	SourceRegression = "regression"
	// SourceAnalytical marks closed-form bounds (roofline).
	SourceAnalytical = "analytical"
	// SourceSimulator marks micro-architectural simulation.
	SourceSimulator = "simulator"
)

// Engine is a kernel-latency forecaster. Implementations must be safe for
// concurrent use once constructed (and, when Trainable, once trained).
type Engine interface {
	// Name returns the engine's registry name (stable, lowercase).
	Name() string
	// PredictKernel answers one Request. Network kernels are rejected with
	// an error — the distributed layer prices them — and a cancelled context
	// returns ctx.Err().
	PredictKernel(ctx context.Context, req Request) (Result, error)
	// PredictKernels answers a batch positionally: the returned slice has
	// exactly len(reqs) outcomes, outcomes[i] answering reqs[i]. Engines
	// with a native batch path amortize one model evaluation across the
	// batch; others evaluate sequentially, honoring ctx between items.
	PredictKernels(ctx context.Context, reqs []Request) []Outcome
}

// Trainable is implemented by engines whose backend fits to a profiled
// dataset before it can predict.
type Trainable interface {
	Train(ds *dataset.Dataset) error
}

// GraphPredictor is implemented by engines with a whole-graph forecast
// path that is cheaper or more faithful than summing PredictKernels —
// core.Predictor batches a graph's distinct kernels through one compiled
// forward pass per operator category.
type GraphPredictor interface {
	PredictGraph(ctx context.Context, gr *graph.Graph, g gpu.Spec) (float64, core.GraphReport, error)
}

// Generational is implemented by engines whose forecasts can change over
// the engine's lifetime — retraining, a growing profiling database. The
// returned value must change whenever previously returned results may
// differ, so serving caches that fold it into their keys invalidate
// automatically instead of serving stale forecasts.
type Generational interface {
	Generation() uint64
}

// ShardHint is implemented by engines that want a say in how the
// cluster's member ring places their traffic. Engines returning the same
// non-empty affinity key are hashed together, so engines that share
// mutable backend state (for example several views over one trained
// predictor) land on the same member.
type ShardHint interface {
	// ShardAffinity returns the affinity key the member ring hashes in
	// place of the engine name. Empty means "no preference" and falls
	// back to the engine name.
	ShardAffinity() string
}

// ShardAffinity returns e's shard-affinity key: the ShardHint value when
// the engine declares a non-empty one, else the engine name.
func ShardAffinity(e Engine) string {
	if h, ok := e.(ShardHint); ok {
		if key := h.ShardAffinity(); key != "" {
			return key
		}
	}
	return e.Name()
}

// Batcher reports whether PredictKernels amortizes one backend evaluation
// across the whole batch (true) or is a sequential convenience loop
// (false). Serving layers use it to decide between holding one worker slot
// for the batch versus fanning items across a pool.
type Batcher interface {
	NativeBatch() bool
}

// NativeBatch reports whether e declares a native batch path.
func NativeBatch(e Engine) bool {
	b, ok := e.(Batcher)
	return ok && b.NativeBatch()
}

// Generation returns e's state generation, or 0 when e is not Generational.
func Generation(e Engine) uint64 {
	if g, ok := e.(Generational); ok {
		return g.Generation()
	}
	return 0
}

// checkRequest applies the checks shared by every engine: a cancelled
// context fails fast and network kernels are rejected uniformly.
func checkRequest(ctx context.Context, req Request) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if req.Kernel.Category() == kernels.CatNetwork {
		return fmt.Errorf("predict: network kernel %s is priced by the distributed layer, not a kernel engine", req.Kernel.Label())
	}
	return nil
}

// PredictGraphKernels forecasts a kernel list end to end with e under the
// paper's sequential-execution assumption: the list is compiled into a
// graph.Plan, its distinct kernels go through e's batch path once, and
// core.FoldPredictions sums them per kernel in list order — network
// kernels skipped for the distributed layer, failures priced by the
// memory-bound estimate and counted in the report. It is the graph
// aggregation every engine without a native PredictGraph shares.
func PredictGraphKernels(ctx context.Context, e Engine, ks []kernels.Kernel, g gpu.Spec) (float64, core.GraphReport, error) {
	pl := graph.CompileKernels(ks)
	reqs := make([]Request, len(pl.Kernels))
	for j, k := range pl.Kernels {
		reqs[j] = Request{Kernel: k, GPU: g}
	}
	outs := e.PredictKernels(ctx, reqs)
	return core.FoldPredictions(pl, g, func(j int) (float64, error) { return outs[j].Result.Latency, outs[j].Err })
}

// batchByGPU is the shared shape of the native batch adapters: requests
// are validated, grouped by GPU (batches are almost always single-GPU),
// each group is evaluated by evalGroup into a positional scratch slice,
// and the results scatter back to the original request positions. A
// context cancelled between groups fails the remaining groups with
// ctx.Err().
func batchByGPU(ctx context.Context, reqs []Request, evalGroup func(ks []kernels.Kernel, g gpu.Spec, group []Outcome)) []Outcome {
	outs := make([]Outcome, len(reqs))
	byGPU := map[string][]int{}
	var order []string
	for i, req := range reqs {
		if err := checkRequest(ctx, req); err != nil {
			outs[i].Err = err
			continue
		}
		if _, ok := byGPU[req.GPU.Name]; !ok {
			order = append(order, req.GPU.Name)
		}
		byGPU[req.GPU.Name] = append(byGPU[req.GPU.Name], i)
	}
	for _, name := range order {
		idxs := byGPU[name]
		if err := ctx.Err(); err != nil {
			for _, i := range idxs {
				outs[i].Err = err
			}
			continue
		}
		ks := make([]kernels.Kernel, len(idxs))
		for j, i := range idxs {
			ks[j] = reqs[i].Kernel
		}
		group := make([]Outcome, len(idxs))
		evalGroup(ks, reqs[idxs[0]].GPU, group)
		for j, i := range idxs {
			outs[i] = group[j]
		}
	}
	return outs
}

// sequentialKernels implements PredictKernels for engines without a native
// batch path: items evaluate in order, and a context cancellation fails the
// remaining items with ctx.Err() instead of evaluating them.
func sequentialKernels(ctx context.Context, e Engine, reqs []Request) []Outcome {
	outs := make([]Outcome, len(reqs))
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(reqs); j++ {
				outs[j].Err = err
			}
			return outs
		}
		outs[i].Result, outs[i].Err = e.PredictKernel(ctx, req)
	}
	return outs
}
