package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	ad "neusight/internal/autodiff"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/jsonl"
	"neusight/internal/kernels"
	"neusight/internal/loss"
	"neusight/internal/mat"
	"neusight/internal/nn"
	"neusight/internal/opt"
	"neusight/internal/tile"
)

// Config sizes the per-category utilization MLPs and their training run.
// The paper trains 8x512 MLPs with AdamW for 100 epochs; the defaults here
// are scaled to pure-Go training speed while keeping the architecture
// family (stacked ReLU layers, two sigmoid-bounded heads).
type Config struct {
	Hidden      int
	Layers      int
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	Seed        int64
}

// DefaultConfig returns the standard training configuration.
func DefaultConfig() Config {
	return Config{Hidden: 64, Layers: 3, Epochs: 60, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 42}
}

// Predictor is a trained NeuSight instance: one utilization MLP per
// operator category plus the tile database recorded during profiling.
//
// A trained Predictor is safe for concurrent PredictKernel / PredictKernels
// / PredictGraph / Utilization calls alongside Train and Calibrate: the
// learned state is one immutable version behind an atomic pointer, which
// every read path loads once, and tiles resolve through the tile
// database's single-flight memo, so identical kernels arriving together pay
// for one nearest-match scan.
//
// Training and prediction use different representations of the same
// weights. Train fits autodiff MLPs (gradients flow through the latency
// equations); every prediction then runs through a nn.CompiledMLP — an
// immutable weight snapshot with an allocation-free forward pass. Train,
// Calibrate and Load fit or decode a new version off to the side, compile
// it whole and publish it with one pointer store, so a batch or a graph is
// always priced by one model, never by categories from two.
type Predictor struct {
	Cfg    Config
	TileDB *tile.DB

	publishMu sync.Mutex // serializes publishers; readers never take it
	cur       atomic.Pointer[version]
}

// version is one published learned state; it is never modified once
// stored. Its categories are indexed by kernels.Category, nil where
// untrained; every category has a slot, so any kernel's category indexes
// it.
type version struct {
	gen  uint64 // counts publishes: the model half of Generation
	cats [kernels.CatNetwork + 1]*catModel
}

// catModel is one category's trained MLP, its compiled forward pass and
// its feature normalization.
type catModel struct {
	mlp      *nn.MLP
	compiled *nn.CompiledMLP
	stats    featureStats
}

// NewPredictor returns an untrained predictor that resolves tiles via tdb.
func NewPredictor(cfg Config, tdb *tile.DB) *Predictor {
	if tdb == nil {
		tdb = tile.NewDB()
	}
	p := &Predictor{Cfg: cfg, TileDB: tdb}
	p.cur.Store(&version{})
	return p
}

// publish stores a new version holding the current one's categories with
// those of trained laid over them. Nothing is published, and the
// generation stays, when trained holds no category.
func (p *Predictor) publish(trained map[kernels.Category]*catModel) {
	if len(trained) == 0 {
		return
	}
	p.publishMu.Lock()
	defer p.publishMu.Unlock()
	cur := p.cur.Load()
	next := &version{gen: cur.gen + 1, cats: cur.cats}
	for cat, m := range trained {
		next.cats[cat] = m
	}
	p.cur.Store(next)
}

// Name implements the predictor naming convention used by the harness.
func (p *Predictor) Name() string { return "NeuSight" }

// TrainReport records the final training loss per category.
type TrainReport struct {
	FinalLoss map[kernels.Category]float64
	Samples   map[kernels.Category]int
}

// Train fits one MLP per category present in ds and returns a report.
func (p *Predictor) Train(ds *dataset.Dataset) TrainReport {
	rep := TrainReport{
		FinalLoss: map[kernels.Category]float64{},
		Samples:   map[kernels.Category]int{},
	}
	trained := map[kernels.Category]*catModel{}
	for _, cat := range trainedCats {
		sub := ds.FilterCategory(cat)
		if sub.Len() == 0 {
			continue
		}
		trained[cat], rep.FinalLoss[cat] = p.trainCategory(cat, sub, nil)
		rep.Samples[cat] = sub.Len()
	}
	p.publish(trained)
	return rep
}

// fineTuneLR scales the configured learning rate for a fine-tune: a
// small window must nudge trained weights, not relearn them.
const fineTuneLR = 0.1

// trainCategory fits and compiles the MLP for one operator category
// without publishing it, and returns it with the final epoch's mean SMAPE
// loss. With from nil it trains from a fresh initialization and fits the
// feature normalization to ds; otherwise it fine-tunes a copy of from's
// weights under from's normalization at fineTuneLR of the learning rate.
func (p *Predictor) trainCategory(cat kernels.Category, ds *dataset.Dataset, from *catModel) (*catModel, float64) {
	rng := rand.New(rand.NewSource(p.Cfg.Seed + int64(cat)))
	var mlp *nn.MLP
	var st featureStats
	lr := p.Cfg.LR
	if from == nil {
		mlp = nn.NewMLP(rng, nn.MLPConfig{
			In: NumFeatures, Hidden: p.Cfg.Hidden, Out: 2,
			Layers: p.Cfg.Layers, Activation: nn.ActReLU,
		})
		rawX, _, _, _ := sampleTensors(ds.Samples, p.TileDB, nil)
		st = fitStats(rawX)
	} else {
		mlp, st, lr = from.mlp.Clone(), from.stats, lr*fineTuneLR
	}
	X, c, w, y := sampleTensors(ds.Samples, p.TileDB, &st)

	optim := opt.NewAdamW(mlp.Params(), opt.AdamWConfig{LR: lr, WeightDecay: p.Cfg.WeightDecay})
	n := len(X)
	bs := p.Cfg.BatchSize
	if bs > n {
		bs = n
	}
	var final float64
	for epoch := 0; epoch < p.Cfg.Epochs; epoch++ {
		optim.SetLR(opt.CosineDecay(lr, lr/20, epoch, p.Cfg.Epochs))
		perm := rng.Perm(n)
		total, batches := 0.0, 0
		for lo := 0; lo < n; lo += bs {
			hi := lo + bs
			if hi > n {
				hi = n
			}
			xb := mat.New(hi-lo, NumFeatures)
			cb := mat.New(hi-lo, 1)
			wb := mat.New(hi-lo, 1)
			yb := mat.New(hi-lo, 1)
			for i := lo; i < hi; i++ {
				j := perm[i]
				copy(xb.Row(i-lo), X[j])
				cb.Data[i-lo] = c[j][0]
				wb.Data[i-lo] = w[j][0]
				yb.Data[i-lo] = y[j][0]
			}
			pred := predictExpr(mlp, ad.NewConstant(xb), ad.NewConstant(cb), ad.NewConstant(wb))
			l := loss.SMAPE(pred, ad.NewConstant(yb))
			ad.Backward(l)
			optim.Step()
			total += l.Data.Data[0]
			batches++
		}
		final = total / float64(batches)
	}
	return &catModel{mlp: mlp, compiled: nn.Compile(mlp), stats: st}, final
}

// Generation identifies the predictor's current learned state: it changes
// whenever Train, Calibrate or Load publishes a version or the tile database
// records new profiles — exactly the events that make previously returned
// forecasts stale. Serving caches fold it into their keys so retraining
// invalidates cached predictions automatically instead of relying on a
// manual flush.
func (p *Predictor) Generation() uint64 {
	return p.cur.Load().gen<<32 | p.TileDB.Generation()&0xffffffff
}

// predictExpr builds the differentiable latency expression: c / util with
// util from the MLP heads (Eq. 5-8 composed).
func predictExpr(mlp *nn.MLP, X, c, w *ad.Value) *ad.Value {
	heads := mlp.Forward(X)
	util := utilFromHeads(heads, w)
	return ad.Div(c, util)
}

// PredictKernel forecasts the latency of kernel k on device g in
// milliseconds. Kernels in the five trained categories go through the
// tile/utilization pipeline on the compiled inference path — no autodiff
// graph is built; anything else uses the memory-bound fallback (paper
// Section 4.3). Network kernels are rejected — the network model owns them.
func (p *Predictor) PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error) {
	lat, _, err := p.PredictKernelDetail(k, g)
	return lat, err
}

// PredictKernelDetail is PredictKernel plus the bounded utilization behind
// the forecast — the quantity the predict.Engine contract surfaces.
// Memory-bound fallbacks report utilization 0: the closed-form estimate has
// no learned utilization.
func (p *Predictor) PredictKernelDetail(k kernels.Kernel, g gpu.Spec) (lat, util float64, err error) {
	cat := k.Category()
	if cat == kernels.CatNetwork {
		return 0, 0, fmt.Errorf("core: network kernel %s must be predicted by the network model", k.Label())
	}
	m := p.cur.Load().cats[cat]
	if m == nil {
		if cat == kernels.CatMemoryBound {
			return MemBoundLatency(k, g), 0, nil
		}
		return 0, 0, fmt.Errorf("%w %v", ErrUntrained, cat)
	}
	c, util := p.compiledEval(m, k, g)
	return c / util, util, nil
}

// compiledEval runs the compiled single-kernel pipeline — tile resolution,
// latency constant, featurization, normalization, one forward pass, and the
// utilization law — and returns the latency constant and bounded
// utilization. It is the one copy of the pipeline whose bit-identity with
// the autodiff expression the parity tests enforce; PredictKernel and
// Utilization must not diverge from each other.
func (p *Predictor) compiledEval(m *catModel, k kernels.Kernel, g gpu.Spec) (c, util float64) {
	t := p.TileDB.LookupOrSelect(k, g)
	c, waves := latencyConstant(k, g, t)
	f := Features(k, g, t, waves)
	m.stats.applyInPlace(f)
	var heads [2]float64
	m.compiled.ForwardRow(f, heads[:])
	return c, utilScalar(heads[0], heads[1], float64(waves))
}

// predictKernelAutodiff is the pre-compilation prediction path: it builds
// the full autodiff expression (graph nodes, gradient buffers, backward
// closures) exactly as training does. It is retained for parity tests and
// the compiled-vs-autodiff benchmarks; serving traffic never takes it.
func (p *Predictor) predictKernelAutodiff(k kernels.Kernel, g gpu.Spec) (float64, error) {
	cat := k.Category()
	if cat == kernels.CatNetwork {
		return 0, fmt.Errorf("core: network kernel %s must be predicted by the network model", k.Label())
	}
	m := p.cur.Load().cats[cat]
	if m == nil {
		if cat == kernels.CatMemoryBound {
			return MemBoundLatency(k, g), nil
		}
		return 0, fmt.Errorf("%w %v", ErrUntrained, cat)
	}
	t := p.TileDB.LookupOrSelect(k, g)
	c, waves := latencyConstant(k, g, t)
	f := m.stats.apply(Features(k, g, t, waves))

	x := ad.NewConstant(mat.FromSlice(1, NumFeatures, f))
	cv := ad.NewConstant(mat.FromSlice(1, 1, []float64{c}))
	wv := ad.NewConstant(mat.FromSlice(1, 1, []float64{float64(waves)}))
	return predictExpr(m.mlp, x, cv, wv).Data.Data[0], nil
}

// Utilization returns the bounded utilization the predictor assigns to k on
// g — useful for introspection and the Table 2 style analyses.
func (p *Predictor) Utilization(k kernels.Kernel, g gpu.Spec) (float64, error) {
	cat := k.Category()
	m := p.cur.Load().cats[cat]
	if m == nil {
		return 0, fmt.Errorf("%w %v", ErrUntrained, cat)
	}
	_, util := p.compiledEval(m, k, g)
	return util, nil
}

// GraphReport summarizes how a graph forecast was produced: how many
// kernels went through the trained pipeline, how many failed and were
// priced by the memory-bound fallback instead, and how many network
// kernels were skipped for the distributed layer. Serving surfaces it on
// /v2/predict/graph so a forecast quietly held together by fallbacks is
// visible to the caller.
type GraphReport struct {
	// Kernels counts the predictable (non-network) kernels submitted.
	Kernels int `json:"kernels"`
	// Predicted counts kernels the predictor answered itself (including
	// closed-form memory-bound categories — that is their model).
	Predicted int `json:"predicted"`
	// Fallbacks counts kernels whose prediction failed and contributed the
	// memory-bound estimate instead.
	Fallbacks int `json:"fallbacks"`
	// Network counts kernels skipped because the distributed layer prices
	// them.
	Network int `json:"network"`
}

// FoldPredictions folds the forecasts of a plan's distinct kernels
// (answer(j) is the forecast of pl.Kernels[j]) into the end-to-end total,
// summing per node in graph order — the same addends in the same order as
// a node-by-node walk, so the total is bit-identical to one. Kernels that
// failed to predict contribute the memory-bound estimate and are counted
// per node in the report, and the returned error aggregates them (nil
// when every kernel predicted). A context cancellation among the errors
// aborts the fold instead — a half-evaluated graph must surface as a
// failure, not a quietly degraded total assembled from fallback guesses.
// This is the one copy of the fallback-aggregation rule; PredictGraph,
// the engine layer, and the serving layer all share it.
func FoldPredictions(pl *graph.Plan, g gpu.Spec, answer func(j int) (lat float64, err error)) (float64, GraphReport, error) {
	rep := GraphReport{Kernels: pl.Predictable(), Network: pl.Network}
	lats := make([]float64, len(pl.Kernels))
	fallbacks := 0
	var firstErr error
	for j, k := range pl.Kernels {
		lat, err := answer(j)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Only the submission size survives the abort: no
				// Predicted/Fallbacks count covers anything returned.
				return 0, rep, err
			}
			if firstErr == nil {
				firstErr = err
			}
			fallbacks += pl.Counts[j]
			lat = MemBoundLatency(k, g)
		}
		lats[j] = lat
	}
	rep.Predicted, rep.Fallbacks = rep.Kernels-fallbacks, fallbacks
	total := 0.0
	for _, j := range pl.Index {
		if j >= 0 {
			total += lats[j]
		}
	}
	var err error
	if rep.Fallbacks > 0 {
		err = fmt.Errorf("core: %d of %d kernels could not be predicted and used the memory-bound fallback (first: %w)",
			rep.Fallbacks, rep.Kernels, firstErr)
	}
	return total, rep, err
}

// PredictGraph forecasts the end-to-end latency of a kernel graph on g by
// sequential aggregation (Section 5). Kernels that fail to predict
// contribute their memory-bound fallback rather than aborting the
// forecast, but the failure is not silent: the report counts them and the
// error aggregates them (nil when every kernel predicted). Network
// kernels contribute zero (the distributed layer prices them).
func (p *Predictor) PredictGraph(gr *graph.Graph, g gpu.Spec) (float64, GraphReport, error) {
	return p.PredictPlan(graph.Compile(gr), g)
}

// PredictPlan is PredictGraph for a graph already compiled: the plan's
// distinct kernels go through one PredictKernels call — a handful of
// compiled forward passes over a dozen rows, however many layers repeat
// them — and FoldPredictions sums them per node.
func (p *Predictor) PredictPlan(pl *graph.Plan, g gpu.Spec) (float64, GraphReport, error) {
	lats, errs := p.PredictKernels(pl.Kernels, g)
	return FoldPredictions(pl, g, func(j int) (float64, error) { return lats[j], errs[j] })
}

// TrainedCategories lists the categories with fitted MLPs, sorted.
func (p *Predictor) TrainedCategories() []kernels.Category {
	var cats []kernels.Category
	for cat, m := range p.cur.Load().cats {
		if m != nil {
			cats = append(cats, kernels.Category(cat))
		}
	}
	return cats
}

// predictorState is the serialized form of a trained predictor.
type predictorState struct {
	Cfg   Config                  `json:"cfg"`
	MLPs  map[string]*nn.MLP      `json:"mlps"`
	Stats map[string]featureStats `json:"stats"`
}

// Save writes the trained predictor (MLPs + normalization) as JSON. The
// tile database is saved separately via its own Save.
//
// The write is atomic (jsonl.Commit): the bytes go to a temporary file
// beside path that is synced and closed before it is renamed over path,
// so a kill or a full disk leaves the old model or the new one, never a
// torn file that Load rejects. The temporary name is unique per call
// (path + ".*.tmp"), so processes that share one model file never write
// into each other's temporary file; for the same reason nothing removes
// the one a killed Save leaves behind. On any error the temporary file is
// removed and path is untouched.
func (p *Predictor) Save(path string) error {
	st := predictorState{Cfg: p.Cfg, MLPs: map[string]*nn.MLP{}, Stats: map[string]featureStats{}}
	for cat, m := range p.cur.Load().cats {
		if m != nil {
			st.MLPs[kernels.Category(cat).String()] = m.mlp
			st.Stats[kernels.Category(cat).String()] = m.stats
		}
	}
	data, err := json.Marshal(st)
	var f *os.File
	if err == nil {
		f, err = os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	}
	if err == nil {
		err = jsonl.Commit(f, path, func(w io.Writer) error {
			if err := f.Chmod(0o644); err != nil { // CreateTemp makes the file 0600
				return err
			}
			_, err := w.Write(data)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	return nil
}

// Load restores a predictor saved by Save, attaching tdb for tile lookups.
func Load(path string, tdb *tile.DB) (*Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st predictorState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	loaded := map[kernels.Category]*catModel{}
	for _, cat := range trainedCats {
		if m, ok := st.MLPs[cat.String()]; ok {
			loaded[cat] = &catModel{mlp: m, compiled: nn.Compile(m), stats: st.Stats[cat.String()]}
		}
	}
	p := NewPredictor(st.Cfg, tdb)
	p.publish(loaded)
	return p, nil
}
