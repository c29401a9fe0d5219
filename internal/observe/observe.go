// Package observe closes the loop between prediction and reality:
// measured kernel latencies reported by clients (POST /v2/observe) are
// compared against the serving engine's current predictions, per-(engine,
// GPU) drift is tracked as a rolling MAPE, and when drift crosses a
// threshold a single-flight background worker folds the observations into
// the training set and retrains the affected categories — hot-swapping
// the model through the predictor's generation bump so the existing
// cache-key versioning and cluster gossip invalidate stale forecasts with
// no new coordination.
package observe

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// PredictFunc resolves the serving engine's current prediction for a
// kernel, in milliseconds. The serve layer wires this to its own serving
// path, so observation-triggered predictions ride the same cache,
// coalescing, and counters as client traffic.
type PredictFunc func(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (float64, error)

// RetrainFunc folds a calibration set (observed latencies, in the same
// millisecond unit the engine predicts) back into an engine's trained
// state and returns the engine's generation after the swap, or 0 when it
// published nothing. It runs on the monitor's single background worker
// and may take seconds. An error is counted and reported on the engine's
// windows; a non-zero generation returned with an error says the new
// state serves although a later step (saving it) failed.
type RetrainFunc func(calib []dataset.Sample) (generation uint64, err error)

// Defaults for Config's zero values.
const (
	DefaultWindow     = 256
	DefaultMinSamples = 32
	DefaultThreshold  = 0.25
)

// Config tunes a Monitor. Zero values take the defaults above.
type Config struct {
	// Window is the per-(engine, GPU) rolling window size: how many of the
	// newest observations the drift MAPE is computed over.
	Window int
	// MinSamples is the minimum window occupancy before drift can trigger
	// a retrain — a handful of outliers must not churn the model.
	MinSamples int
	// Threshold is the rolling-MAPE level above which a retrainable
	// engine's calibration retrain fires (0.25 = 25% mean error).
	Threshold float64
}

// point is one accepted observation held in a drift window.
type point struct {
	k        kernels.Kernel
	g        gpu.Spec
	observed float64
	pred     float64
}

// window is the rolling drift state for one (engine, GPU) pair.
type window struct {
	engine  string
	gpuName string
	ring    []point
	next    int
	total   uint64 // observations ever ingested into this window
}

// push appends p, evicting the oldest past the cap.
func (w *window) push(p point, cap int) {
	if len(w.ring) < cap {
		w.ring = append(w.ring, p)
	} else {
		w.ring[w.next] = p
		w.next = (w.next + 1) % len(w.ring)
	}
	w.total++
}

// mape is the mean absolute percentage error of predictions vs
// observations over the window's current contents.
func (w *window) mape() float64 {
	if len(w.ring) == 0 {
		return 0
	}
	var sum float64
	for _, p := range w.ring {
		sum += math.Abs(p.observed-p.pred) / p.observed
	}
	return sum / float64(len(w.ring))
}

// engineDrift is per-engine retrain bookkeeping, shared by all of the
// engine's (engine, GPU) windows.
type engineDrift struct {
	retrains uint64
	lastGen  uint64
	lastErr  string
}

// Monitor ingests measured kernel latencies, tracks prediction drift per
// (engine, GPU), and schedules single-flight background retrains for
// engines with a registered retrainer. Safe for concurrent use.
type Monitor struct {
	cfg     Config
	predict PredictFunc

	mu         sync.Mutex
	windows    map[string]*window // key: engine + "|" + gpu
	retrainers map[string]RetrainFunc
	engines    map[string]*engineDrift
	closed     bool

	ingested      atomic.Uint64
	rejected      atomic.Uint64
	retrains      atomic.Uint64
	retrainErrors atomic.Uint64
	retrainActive atomic.Bool

	wg sync.WaitGroup
}

// NewMonitor builds a monitor over cfg. predict must be non-nil.
func NewMonitor(cfg Config, predict PredictFunc) *Monitor {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	if cfg.MinSamples > cfg.Window {
		cfg.MinSamples = cfg.Window
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultThreshold
	}
	return &Monitor{
		cfg:        cfg,
		predict:    predict,
		windows:    map[string]*window{},
		retrainers: map[string]RetrainFunc{},
		engines:    map[string]*engineDrift{},
	}
}

// RegisterRetrainer marks engine as retrainable: when its drift crosses
// the threshold, fn runs on the background worker with the engine's
// accumulated calibration set. Engines without a retrainer are tracked
// alert-only — observations are accepted and drift is reported, but no
// retrain is ever scheduled.
func (m *Monitor) RegisterRetrainer(engine string, fn RetrainFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retrainers[engine] = fn
}

// Ingest accepts one measured latency for (engine, k, g): it resolves the
// engine's current prediction, pushes the (observed, predicted) pair into
// the (engine, GPU) drift window, and — if the window's MAPE now exceeds
// the threshold with at least MinSamples samples and the engine is
// retrainable — starts the background retrain, unless one is already in
// flight (single-flight: concurrent drift on many windows coalesces into
// one worker).
//
// The engine name must be resolved (non-empty) by the caller. A
// non-positive or non-finite observation, or a prediction failure
// (unknown engine, saturated shard), rejects the observation.
func (m *Monitor) Ingest(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec, observedMs float64) error {
	if engine == "" {
		m.rejected.Add(1)
		return fmt.Errorf("observe: empty engine")
	}
	if !(observedMs > 0) || math.IsInf(observedMs, 0) {
		m.rejected.Add(1)
		return fmt.Errorf("observe: observed_ms must be a positive finite number, got %v", observedMs)
	}
	pred, err := m.predict(ctx, engine, k, g)
	if err != nil {
		m.rejected.Add(1)
		return err
	}

	m.mu.Lock()
	key := engine + "|" + g.Name
	w := m.windows[key]
	if w == nil {
		w = &window{engine: engine, gpuName: g.Name}
		m.windows[key] = w
	}
	w.push(point{k: k, g: g, observed: observedMs, pred: pred}, m.cfg.Window)
	m.ingested.Add(1)

	if !m.closed &&
		len(w.ring) >= m.cfg.MinSamples && w.mape() > m.cfg.Threshold {
		if fn := m.retrainers[engine]; fn != nil && m.retrainActive.CompareAndSwap(false, true) {
			calib := m.calibrationSetLocked(engine)
			m.wg.Add(1)
			go m.retrain(engine, fn, calib)
		}
	}
	m.mu.Unlock()
	return nil
}

// calibrationSetLocked gathers every window of engine into a calibration
// set: the observed latency becomes the sample's ground truth. Callers
// hold m.mu.
func (m *Monitor) calibrationSetLocked(engine string) []dataset.Sample {
	var calib []dataset.Sample
	for _, w := range m.windows {
		if w.engine != engine {
			continue
		}
		for _, p := range w.ring {
			calib = append(calib, dataset.Sample{Kernel: p.k, GPU: p.g, Latency: p.observed})
		}
	}
	return calib
}

// retrain runs one background calibration retrain. Once the retrainer
// has published (a non-zero generation) the engine's windows reset —
// drift is measured against the new model from scratch, and the
// MinSamples refill doubles as a retrain cooldown — even when it then
// failed: the published model serves, and its drift is no longer the one
// the windows measured. A retrainer that published nothing keeps the
// windows, so the next drifting observation retries.
func (m *Monitor) retrain(engine string, fn RetrainFunc, calib []dataset.Sample) {
	defer m.wg.Done()
	defer m.retrainActive.Store(false)
	gen, err := fn(calib)

	m.mu.Lock()
	defer m.mu.Unlock()
	ed := m.engines[engine]
	if ed == nil {
		ed = &engineDrift{}
		m.engines[engine] = ed
	}
	if err != nil {
		m.retrainErrors.Add(1)
		ed.lastErr = err.Error()
	} else {
		m.retrains.Add(1)
		ed.retrains++
		ed.lastErr = ""
	}
	if err != nil && gen == 0 {
		return
	}
	ed.lastGen = gen
	for _, w := range m.windows {
		if w.engine == engine {
			w.ring = w.ring[:0]
			w.next = 0
		}
	}
}

// Close stops scheduling retrains and waits for an in-flight retrain to
// finish.
func (m *Monitor) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
}

// WindowReport is the drift state of one (engine, GPU) pair.
type WindowReport struct {
	Engine  string `json:"engine"`
	GPU     string `json:"gpu"`
	Samples int    `json:"samples"` // observations currently in the window
	Total   uint64 `json:"total"`   // observations ever ingested
	// MAPE is the rolling mean absolute percentage error of predictions vs
	// observations over the window.
	MAPE float64 `json:"mape"`
	// Drifting reports MAPE above the threshold — visible before the
	// MinSamples bar for retraining is met.
	Drifting    bool `json:"drifting"`
	Retrainable bool `json:"retrainable"`
	// Retrains and LastRetrainGeneration are engine-level: calibration
	// retrains completed and the engine generation after the last one.
	Retrains              uint64 `json:"retrains,omitempty"`
	LastRetrainGeneration uint64 `json:"last_retrain_generation,omitempty"`
	LastError             string `json:"last_error,omitempty"`
}

// Report is the monitor's drift report, exposed under the "observe"
// section of /v2/stats.
type Report struct {
	Ingested      uint64         `json:"ingested"`
	Rejected      uint64         `json:"rejected"`
	WindowSize    int            `json:"window_size"`
	MinSamples    int            `json:"min_samples"`
	Threshold     float64        `json:"threshold"`
	Retrains      uint64         `json:"retrains"`
	RetrainErrors uint64         `json:"retrain_errors,omitempty"`
	RetrainActive bool           `json:"retrain_active"`
	Windows       []WindowReport `json:"windows,omitempty"`
}

// Report snapshots the monitor's drift state. Windows are sorted by
// (engine, GPU) for stable output.
func (m *Monitor) Report() Report {
	rep := Report{
		Ingested:      m.ingested.Load(),
		Rejected:      m.rejected.Load(),
		WindowSize:    m.cfg.Window,
		MinSamples:    m.cfg.MinSamples,
		Threshold:     m.cfg.Threshold,
		Retrains:      m.retrains.Load(),
		RetrainErrors: m.retrainErrors.Load(),
		RetrainActive: m.retrainActive.Load(),
	}
	m.mu.Lock()
	for _, w := range m.windows {
		mape := w.mape()
		wr := WindowReport{
			Engine:      w.engine,
			GPU:         w.gpuName,
			Samples:     len(w.ring),
			Total:       w.total,
			MAPE:        mape,
			Drifting:    mape > m.cfg.Threshold,
			Retrainable: m.retrainers[w.engine] != nil,
		}
		if ed := m.engines[w.engine]; ed != nil {
			wr.Retrains = ed.retrains
			wr.LastRetrainGeneration = ed.lastGen
			wr.LastError = ed.lastErr
		}
		rep.Windows = append(rep.Windows, wr)
	}
	m.mu.Unlock()
	sort.Slice(rep.Windows, func(i, j int) bool {
		if rep.Windows[i].Engine != rep.Windows[j].Engine {
			return rep.Windows[i].Engine < rep.Windows[j].Engine
		}
		return rep.Windows[i].GPU < rep.Windows[j].GPU
	})
	return rep
}
