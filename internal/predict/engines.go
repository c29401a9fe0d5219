package predict

import (
	"context"

	"neusight/internal/baselines"
	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/graph"
	"neusight/internal/kernels"
)

// Canonical engine names. Every adapter in this file registers under one of
// these; the serving layer's default is EngineNeuSight.
const (
	EngineNeuSight          = "neusight"
	EngineHabitat           = "habitat"
	EngineLiRegression      = "liregression"
	EngineRoofline          = "roofline"
	EngineDirectMLP         = "direct-mlp"
	EngineDirectTransformer = "direct-transformer"
	EngineGPUSim            = "gpusim"
)

// Info describes one engine of the standard set for listings (the CLI
// `engines` subcommand, GET /v2/engines).
type Info struct {
	Name        string `json:"name"`
	Source      string `json:"source"`
	Trainable   bool   `json:"trainable"`
	Description string `json:"description"`
}

// Catalog returns the standard engine set in presentation order: the paper's
// comparison predictors plus the measurement substrate.
func Catalog() []Info {
	return []Info{
		{EngineNeuSight, SourceModel, true, "NeuSight tile/utilization pipeline: per-category MLPs bounded by performance laws (most accurate OOD)"},
		{EngineRoofline, SourceAnalytical, false, "analytical max(FLOPs/peak, bytes/BW) bound: instant, optimistic lower bound"},
		{EngineHabitat, SourceRegression, true, "Habitat (Yu et al.): per-operator MLPs + reference-GPU scaling for vector ops"},
		{EngineLiRegression, SourceRegression, true, "Li et al.: per-GPU FLOPs->latency lines, bandwidth-extrapolated to unseen GPUs"},
		{EngineDirectMLP, SourceRegression, true, "direct log-latency MLP regression on kernel dims + GPU spec (fails OOD)"},
		{EngineDirectTransformer, SourceRegression, true, "direct log-latency transformer regression (Table 1 study)"},
		{EngineGPUSim, SourceSimulator, false, "the measurement substrate itself: hidden-parameter device simulation (ground truth here, unavailable for real unreleased GPUs)"},
	}
}

// CoreEngine adapts *core.Predictor — the NeuSight predictor — to the
// Engine contract. It is the only engine of the standard set with a native
// batch path (one compiled forward pass per operator category) and a
// whole-graph forecast, and the only Generational one (retraining and tile
// profiling bump the generation).
type CoreEngine struct {
	P *core.Predictor
}

// NewCoreEngine wraps p.
func NewCoreEngine(p *core.Predictor) *CoreEngine {
	if p == nil {
		panic("predict: nil core predictor")
	}
	return &CoreEngine{P: p}
}

// Name implements Engine.
func (e *CoreEngine) Name() string { return EngineNeuSight }

// PredictKernel implements Engine via the compiled inference path.
func (e *CoreEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, util, err := e.P.PredictKernelDetail(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Utilization: util, Engine: EngineNeuSight, Source: SourceModel}, nil
}

// PredictKernels implements Engine natively: requests are grouped by GPU
// (batches are almost always single-GPU) and each group pays one batched
// core evaluation — one featurization, normalization, and compiled forward
// pass per operator category.
func (e *CoreEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return batchByGPU(ctx, reqs, func(ks []kernels.Kernel, g gpu.Spec, group []Outcome) {
		lats, utils, errs := e.P.PredictKernelsDetail(ks, g)
		for j := range ks {
			if errs[j] != nil {
				group[j].Err = errs[j]
				continue
			}
			group[j].Result = Result{Latency: lats[j], Utilization: utils[j], Engine: EngineNeuSight, Source: SourceModel}
		}
	})
}

// NativeBatch implements Batcher.
func (e *CoreEngine) NativeBatch() bool { return true }

// Train implements Trainable.
func (e *CoreEngine) Train(ds *dataset.Dataset) error {
	e.P.Train(ds)
	return nil
}

// Generation implements Generational.
func (e *CoreEngine) Generation() uint64 { return e.P.Generation() }

// PredictGraph implements GraphPredictor through the batched core path.
func (e *CoreEngine) PredictGraph(ctx context.Context, gr *graph.Graph, g gpu.Spec) (float64, core.GraphReport, error) {
	if err := ctx.Err(); err != nil {
		return 0, core.GraphReport{}, err
	}
	return e.P.PredictGraph(gr, g)
}

// kernelEngine adapts every backend without a batch path: predict answers
// one kernel (utilization 0 when the backend models none); the adapter adds
// the shared request checks, the Result envelope and the sequential batch.
type kernelEngine struct {
	name, source string
	predict      func(k kernels.Kernel, g gpu.Spec) (lat, util float64, err error)
}

// Name implements Engine.
func (e *kernelEngine) Name() string { return e.name }

// PredictKernel implements Engine.
func (e *kernelEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, util, err := e.predict(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Utilization: util, Engine: e.name, Source: e.source}, nil
}

// PredictKernels implements Engine sequentially.
func (e *kernelEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// trainableEngine is a kernelEngine whose backend fits to a dataset first.
type trainableEngine struct {
	kernelEngine
	train func(ds *dataset.Dataset)
}

// Train implements Trainable.
func (e *trainableEngine) Train(ds *dataset.Dataset) error { e.train(ds); return nil }

// latencyOnly adapts a backend without a utilization model.
func latencyOnly(fn func(kernels.Kernel, gpu.Spec) (float64, error)) func(kernels.Kernel, gpu.Spec) (float64, float64, error) {
	return func(k kernels.Kernel, g gpu.Spec) (float64, float64, error) {
		lat, err := fn(k, g)
		return lat, 0, err
	}
}

// mustBackend panics when a constructor is handed a nil backend.
func mustBackend(missing bool, what string) {
	if missing {
		panic("predict: nil " + what)
	}
}

// NewHabitatEngine adapts the Habitat baseline.
func NewHabitatEngine(h *baselines.Habitat) Engine {
	mustBackend(h == nil, "habitat baseline")
	return &trainableEngine{kernelEngine{EngineHabitat, SourceRegression, latencyOnly(h.PredictKernel)}, h.Train}
}

// NewLiEngine adapts the Li et al. regression baseline.
func NewLiEngine(l *baselines.LiRegression) Engine {
	mustBackend(l == nil, "li regression baseline")
	return &trainableEngine{kernelEngine{EngineLiRegression, SourceRegression, latencyOnly(l.PredictKernel)}, l.Train}
}

// NewRooflineEngine returns the analytical roofline bound (no training, utilization 1).
func NewRooflineEngine() Engine {
	return &kernelEngine{EngineRoofline, SourceAnalytical, func(k kernels.Kernel, g gpu.Spec) (float64, float64, error) {
		lat, err := baselines.Roofline{}.PredictKernel(k, g)
		return lat, 1, err
	}}
}

// NewDirectMLPEngine adapts the direct log-latency MLP regressor.
func NewDirectMLPEngine(m *baselines.DirectMLP) Engine {
	mustBackend(m == nil, "direct MLP")
	train := func(ds *dataset.Dataset) { m.Train(ds.Samples) }
	return &trainableEngine{kernelEngine{EngineDirectMLP, SourceRegression, latencyOnly(m.Predict)}, train}
}

// NewDirectTransformerEngine adapts the Table 1 transformer regressor.
func NewDirectTransformerEngine(t *baselines.DirectTransformer) Engine {
	mustBackend(t == nil, "direct transformer")
	train := func(ds *dataset.Dataset) { t.Train(ds.Samples) }
	return &trainableEngine{kernelEngine{EngineDirectTransformer, SourceRegression, latencyOnly(t.Predict)}, train}
}

// NewSimEngine adapts the gpusim measurement substrate, ground truth made
// routable; checkRequest keeps network kernels, on which it panics, away.
func NewSimEngine(s *gpusim.Simulator) Engine {
	mustBackend(s == nil, "simulator")
	return &kernelEngine{EngineGPUSim, SourceSimulator, func(k kernels.Kernel, g gpu.Spec) (float64, float64, error) {
		lat := s.KernelLatency(k, g)
		return lat, gpusim.UtilizationFromLatency(k, g, lat), nil
	}}
}

// NewFuncEngine wraps a bare prediction function as an engine named name:
// the cheapest way to put an ablation knockout or a test stub behind Engine.
func NewFuncEngine(name, source string, fn func(kernels.Kernel, gpu.Spec) (float64, error)) Engine {
	mustBackend(fn == nil, "engine func")
	return &kernelEngine{name, source, latencyOnly(fn)}
}
