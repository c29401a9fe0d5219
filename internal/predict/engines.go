package predict

import (
	"context"
	"fmt"

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

// Calibrate implements Calibrator: observed latencies are folded into the
// training set and the affected categories retrained through the core
// predictor's shadow-train + hot-swap path, bumping the generation.
func (e *CoreEngine) Calibrate(base *dataset.Dataset, observed []dataset.Sample) error {
	rep := e.P.Calibrate(base, observed)
	if len(rep.Trained) == 0 {
		return fmt.Errorf("predict: no calibration sample falls in a trained category (%d skipped)", rep.Skipped)
	}
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

// HabitatEngine adapts the Habitat baseline.
type HabitatEngine struct {
	H *baselines.Habitat
}

// NewHabitatEngine wraps h.
func NewHabitatEngine(h *baselines.Habitat) *HabitatEngine {
	if h == nil {
		panic("predict: nil habitat baseline")
	}
	return &HabitatEngine{H: h}
}

// Name implements Engine.
func (e *HabitatEngine) Name() string { return EngineHabitat }

// PredictKernel implements Engine.
func (e *HabitatEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, err := e.H.PredictKernel(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Engine: EngineHabitat, Source: SourceRegression}, nil
}

// PredictKernels implements Engine sequentially.
func (e *HabitatEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// Train implements Trainable.
func (e *HabitatEngine) Train(ds *dataset.Dataset) error {
	e.H.Train(ds)
	return nil
}

// LiEngine adapts the Li et al. regression baseline.
type LiEngine struct {
	L *baselines.LiRegression
}

// NewLiEngine wraps l.
func NewLiEngine(l *baselines.LiRegression) *LiEngine {
	if l == nil {
		panic("predict: nil li regression baseline")
	}
	return &LiEngine{L: l}
}

// Name implements Engine.
func (e *LiEngine) Name() string { return EngineLiRegression }

// PredictKernel implements Engine.
func (e *LiEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, err := e.L.PredictKernel(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Engine: EngineLiRegression, Source: SourceRegression}, nil
}

// PredictKernels implements Engine sequentially.
func (e *LiEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// Train implements Trainable.
func (e *LiEngine) Train(ds *dataset.Dataset) error {
	e.L.Train(ds)
	return nil
}

// RooflineEngine adapts the analytical roofline bound. It needs no
// training and reports utilization 1 — the bound's defining assumption.
type RooflineEngine struct {
	R baselines.Roofline
}

// NewRooflineEngine returns the roofline engine.
func NewRooflineEngine() *RooflineEngine { return &RooflineEngine{} }

// Name implements Engine.
func (e *RooflineEngine) Name() string { return EngineRoofline }

// PredictKernel implements Engine.
func (e *RooflineEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, err := e.R.PredictKernel(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Utilization: 1, Engine: EngineRoofline, Source: SourceAnalytical}, nil
}

// PredictKernels implements Engine sequentially.
func (e *RooflineEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// DirectMLPEngine adapts the direct log-latency MLP regressor.
type DirectMLPEngine struct {
	M *baselines.DirectMLP
}

// NewDirectMLPEngine wraps m.
func NewDirectMLPEngine(m *baselines.DirectMLP) *DirectMLPEngine {
	if m == nil {
		panic("predict: nil direct MLP")
	}
	return &DirectMLPEngine{M: m}
}

// Name implements Engine.
func (e *DirectMLPEngine) Name() string { return EngineDirectMLP }

// PredictKernel implements Engine.
func (e *DirectMLPEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, err := e.M.Predict(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Engine: EngineDirectMLP, Source: SourceRegression}, nil
}

// PredictKernels implements Engine sequentially.
func (e *DirectMLPEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// Train implements Trainable.
func (e *DirectMLPEngine) Train(ds *dataset.Dataset) error {
	e.M.Train(ds.Samples)
	return nil
}

// DirectTransformerEngine adapts the transformer regressor of the Table 1
// study.
type DirectTransformerEngine struct {
	T *baselines.DirectTransformer
}

// NewDirectTransformerEngine wraps t.
func NewDirectTransformerEngine(t *baselines.DirectTransformer) *DirectTransformerEngine {
	if t == nil {
		panic("predict: nil direct transformer")
	}
	return &DirectTransformerEngine{T: t}
}

// Name implements Engine.
func (e *DirectTransformerEngine) Name() string { return EngineDirectTransformer }

// PredictKernel implements Engine.
func (e *DirectTransformerEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, err := e.T.Predict(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Engine: EngineDirectTransformer, Source: SourceRegression}, nil
}

// PredictKernels implements Engine sequentially.
func (e *DirectTransformerEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// Train implements Trainable.
func (e *DirectTransformerEngine) Train(ds *dataset.Dataset) error {
	e.T.Train(ds.Samples)
	return nil
}

// SimEngine adapts the gpusim measurement substrate. In this repo it is
// ground truth made routable: the cheap-vs-learned split the registry
// enables would, on real hardware, route to a profiler for in-hand devices
// and to learned engines for unreleased ones.
type SimEngine struct {
	S *gpusim.Simulator
}

// NewSimEngine wraps s.
func NewSimEngine(s *gpusim.Simulator) *SimEngine {
	if s == nil {
		panic("predict: nil simulator")
	}
	return &SimEngine{S: s}
}

// Name implements Engine.
func (e *SimEngine) Name() string { return EngineGPUSim }

// PredictKernel implements Engine. The network-kernel guard in checkRequest
// matters here: the simulator panics on network kernels by design.
func (e *SimEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat := e.S.KernelLatency(req.Kernel, req.GPU)
	util := gpusim.UtilizationFromLatency(req.Kernel, req.GPU, lat)
	return Result{Latency: lat, Utilization: util, Engine: EngineGPUSim, Source: SourceSimulator}, nil
}

// PredictKernels implements Engine sequentially.
func (e *SimEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}

// FuncEngine wraps a bare prediction function as an engine — the cheapest
// way to put an ad-hoc variant (an ablation knockout, a test stub) behind
// the Engine contract.
type FuncEngine struct {
	name   string
	source string
	fn     func(kernels.Kernel, gpu.Spec) (float64, error)
}

// NewFuncEngine returns an engine named name that answers with fn.
func NewFuncEngine(name, source string, fn func(kernels.Kernel, gpu.Spec) (float64, error)) *FuncEngine {
	if fn == nil {
		panic("predict: nil engine func")
	}
	return &FuncEngine{name: name, source: source, fn: fn}
}

// Name implements Engine.
func (e *FuncEngine) Name() string { return e.name }

// PredictKernel implements Engine.
func (e *FuncEngine) PredictKernel(ctx context.Context, req Request) (Result, error) {
	if err := checkRequest(ctx, req); err != nil {
		return Result{}, err
	}
	lat, err := e.fn(req.Kernel, req.GPU)
	if err != nil {
		return Result{}, err
	}
	return Result{Latency: lat, Engine: e.name, Source: e.source}, nil
}

// PredictKernels implements Engine sequentially.
func (e *FuncEngine) PredictKernels(ctx context.Context, reqs []Request) []Outcome {
	return sequentialKernels(ctx, e, reqs)
}
