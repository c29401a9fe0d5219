// Package serve is the production serving layer of the framework: it routes
// prediction traffic across a registry of latency engines behind a
// thread-safe Service that caches, coalesces, and rate-bounds kernel
// forecasts, and exposes the result as a versioned HTTP JSON API (see
// http.go) wired into the `neusight serve` subcommand.
//
// The serving shape follows directly from the NeuSight design
// (conf_asplos_LeeP025): a forecast decomposes into per-kernel queries
// against small models, DNN graphs repeat identical kernels across layers,
// and users repeat identical (workload, GPU) questions — so an LRU keyed
// by (engine, kernel fingerprint, GPU, engine generation) absorbs most
// traffic, and coalescing collapses identical in-flight misses onto a
// single model evaluation. Multi-engine routing rides the same machinery:
// cache keys carry the engine, and every registered engine keeps its own
// counters, so a cheap roofline bound and the learned NeuSight pipeline
// are a per-request routing decision, not separate deployments.
//
// Two subsystems scale that machinery to production traffic:
//
//   - One bounded serving unit: the Service holds one cache, one
//     coalescing table and one worker pool behind one in-flight bound, so
//     overload pushes back with ErrSaturated instead of queueing without
//     bound. The engine set is the registry's at construction and never
//     changes while the service runs.
//   - Workload traces (trace.go): the keys the service actually serves can
//     be recorded to an append-only JSONL trace, and a saved trace replayed
//     at startup to warm the caches concurrently before the listener
//     accepts traffic — a restart no longer discards the workload profile
//     the previous process spent its uptime learning.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/tile"
)

// Config sizes the service's one cache, worker pool and queue bound.
type Config struct {
	// CacheSize is the LRU capacity in entries, shared by every engine.
	// Zero means DefaultCacheSize; negative disables caching.
	CacheSize int
	// Workers bounds how many predictions run concurrently in the backends.
	// Zero means GOMAXPROCS.
	Workers int
	// Queue bounds how many requests may be in flight (executing, or
	// waiting on the worker pool or a coalesced call) before arrivals are
	// rejected with ErrSaturated. Zero means DefaultQueue; negative
	// disables backpressure.
	Queue int
}

// ErrSaturated is wrapped by prediction calls rejected by backpressure:
// the service already has Config.Queue requests in flight, so the request
// is refused immediately instead of queueing without bound. HTTP maps it
// to 503; clients should back off and retry.
var ErrSaturated = errors.New("serve: saturated")

// DefaultQueue is the default in-flight bound: large enough that only
// genuine overload trips it, small enough that overload is reported as
// backpressure rather than unbounded memory growth.
const DefaultQueue = 1024

// DefaultCacheSize holds the working set of several large transformer
// graphs (a GPT-3 inference graph has a few thousand kernels but only
// dozens of unique shapes).
const DefaultCacheSize = 4096

// Service is a thread-safe prediction server. It layers three mechanisms
// over every registered engine:
//
//  1. an LRU prediction cache keyed by (engine, kernel fingerprint, GPU
//     name) plus the engine's state generation, so retraining invalidates
//     cached forecasts without a manual flush;
//  2. request coalescing: concurrent misses on the same key share one
//     backend evaluation instead of duplicating it;
//  3. a bounded worker pool so graph fan-out cannot oversubscribe the CPU,
//     behind a bounded queue so overload is shed, not buffered.
//
// Requests name an engine (or take the default) from the set registered
// when the service was built: engines are registered at start-up, and one
// registered later is not served.
type Service struct {
	reg   *predict.Registry
	def   string
	lat   *latencyWindow
	start time.Time

	// cache holds every engine's forecasts (keys carry the engine state);
	// inflight, under imu, holds the backend evaluations later arrivals for
	// the same key wait on; sem is the Workers-slot pool; queue is the
	// in-flight bound (0 disables backpressure) that inFlight is admitted
	// against.
	cache    *lruCache[cacheKey, predict.Result]
	imu      sync.Mutex
	inflight map[cacheKey]*inflightCall
	sem      chan struct{}
	queue    int
	inFlight atomic.Int64

	// recorder, when set, appends every newly served key to a workload
	// trace; warmup holds the report of the last trace replay (trace.go).
	// warming is true while WarmFromTrace replays — replay traffic must not
	// count as "requested" for trace compaction (warmup runs before the
	// listener opens, so it never overlaps live traffic).
	recorder atomic.Pointer[TraceRecorder]
	warmup   atomic.Pointer[WarmupStats]
	warming  atomic.Bool
	// observer, when set, accepts measured kernel latencies on /v2/observe
	// and tracks prediction drift (observe.go).
	observer atomic.Pointer[observe.Monitor]
	// planner, when set, serves /v2/plan what-if sweeps (plan.go).
	planner atomic.Pointer[plan.Manager]

	// engines holds one state per engine registered at construction, in
	// name order; byName resolves a request's engine name to its state.
	// Both are fixed by NewMulti and read without a lock.
	engines []*engineState
	byName  map[string]*engineState

	// plans memoizes compiled graph plans for the HTTP graph handlers
	// (graphplan.go).
	plans *lruCache[planKey, *graph.Plan]

	requests  atomic.Uint64
	coalesced atomic.Uint64
	errors    atomic.Uint64
	graphs    atomic.Uint64
	// deduped counts requests answered without a cache lookup of their
	// own: repeats of a kernel within one graph or batch, which share the
	// first occurrence's answer.
	deduped        atomic.Uint64
	batches        atomic.Uint64
	batchedKernels atomic.Uint64
	rejected       atomic.Uint64
}

// engineState is one engine's routing entry and its slice of the
// counters.
type engineState struct {
	name string
	eng  predict.Engine
	// index is the state's position in Service.engines: the namespace of
	// its entries in the cache every engine shares.
	index uint64

	requests    atomic.Uint64
	errors      atomic.Uint64
	coalesced   atomic.Uint64
	deduped     atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// cacheKey identifies a cached forecast and an in-flight evaluation: the
// engine's index (the cache is shared across engines), its generation (0
// when it tracks none; a retrain leaves every prior entry unreachable to
// age out of the LRU), and the whole kernel on the GPU, not its Label.
type cacheKey struct {
	engine, gen uint64
	tile.CacheKey
}

// owns reports whether a cache key belongs to this engine state.
func (es *engineState) owns(key cacheKey) bool { return key.engine == es.index }

func (es *engineState) key(k kernels.Kernel, g gpu.Spec) cacheKey {
	return cacheKey{es.index, predict.Generation(es.eng), tile.CacheKey{Kernel: k.Key(), GPU: g.Name}}
}

// inflightCall is one in-progress backend prediction that later arrivals
// for the same key wait on.
type inflightCall struct {
	done chan struct{}
	res  predict.Result
	err  error
}

// NewMulti returns a Service routing across every engine registered in reg
// now, serving defaultEngine when a request does not name one.
func NewMulti(reg *predict.Registry, defaultEngine string, cfg Config) *Service {
	if reg == nil {
		panic("serve: nil registry")
	}
	if _, err := reg.Get(defaultEngine); err != nil {
		panic(fmt.Sprintf("serve: default engine not registered: %v", err))
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := cfg.Queue
	switch {
	case queue == 0:
		queue = DefaultQueue
	case queue < 0:
		queue = 0 // backpressure disabled
	}
	s := &Service{
		reg:      reg,
		def:      defaultEngine,
		lat:      newLatencyWindow(),
		start:    time.Now(),
		cache:    newLRUCache[cacheKey, predict.Result](size),
		inflight: map[cacheKey]*inflightCall{},
		sem:      make(chan struct{}, workers),
		queue:    queue,
		byName:   map[string]*engineState{},
		plans:    newLRUCache[planKey, *graph.Plan](planMemoSize),
	}
	for i, eng := range reg.Engines() {
		es := &engineState{name: eng.Name(), eng: eng, index: uint64(i)}
		s.engines = append(s.engines, es)
		s.byName[es.name] = es
	}
	return s
}

// Registry returns the engine registry the service routes across.
func (s *Service) Registry() *predict.Registry { return s.reg }

// DefaultEngine returns the engine name served when a request names none.
func (s *Service) DefaultEngine() string { return s.def }

// engine resolves name ("" means the default) to its serving state. An
// unknown name fails with an error that wraps predict.ErrUnknownEngine and
// names the served engines.
func (s *Service) engine(name string) (*engineState, error) {
	if name == "" {
		name = s.def
	}
	if es, ok := s.byName[name]; ok {
		return es, nil
	}
	names := make([]string, len(s.engines))
	for i, es := range s.engines {
		names[i] = es.name
	}
	return nil, fmt.Errorf("serve: %w %q (serving: %s)", predict.ErrUnknownEngine, name, strings.Join(names, ", "))
}

// InvalidateEngine drops every cached forecast of the engine named name,
// returning how many entries were dropped. It is the cluster layer's
// invalidation hook: a peer process reporting a newer state generation for
// this engine means locally cached forecasts may be stale even though the
// local engine's own generation — the one cache keys fold in — never
// moved. An engine the service does not serve has nothing cached and drops
// zero.
func (s *Service) InvalidateEngine(name string) int {
	es, ok := s.byName[name]
	if !ok {
		return 0
	}
	return s.cache.DropFunc(es.owns)
}

// admit applies the in-flight bound, reserving a slot on success. Callers
// must release() the slot when the request completes. The bound is exact
// under concurrency: the slot is taken first and handed back on
// rejection, so racing arrivals cannot all pass a stale load.
func (s *Service) admit() bool {
	if n := s.inFlight.Add(1); s.queue > 0 && n > int64(s.queue) {
		s.inFlight.Add(-1)
		s.rejected.Add(1)
		return false
	}
	return true
}

// release returns an in-flight slot reserved by admit.
func (s *Service) release() { s.inFlight.Add(-1) }

// PredictKernelEngine forecasts the latency of kernel k on device g with
// the named engine ("" selects the default): a batch of one through
// predictMany, so it is cached, coalesced, and admitted exactly like every
// other request. Unknown engine names fail before any counters move. It is
// safe for arbitrary concurrent use.
func (s *Service) PredictKernelEngine(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (predict.Result, error) {
	es, err := s.engine(engine)
	if err != nil {
		return predict.Result{}, err
	}
	outs, err := s.predictMany(ctx, es, []kernels.Kernel{k}, g, nil)
	if err != nil {
		return predict.Result{}, err
	}
	return outs[0].Result, outs[0].Err
}

// countErrors records n failed predictions on the aggregate and engine
// counters.
func (s *Service) countErrors(es *engineState, n uint64) {
	s.errors.Add(n)
	es.errors.Add(n)
}

// callEngine runs one per-kernel engine prediction under a slot of the
// worker pool, converting an engine panic into an error with the
// slot released. A backend round of one kernel and the fan-out for engines
// without native batch support both go through it.
//
// The evaluation runs detached from the caller's cancellation: in-flight
// calls are shared by coalescing, so cancelling the leader's request must
// not poison the result every coalesced waiter receives (the classic
// singleflight-with-context bug). Cancelled callers fail fast before
// leading or joining an evaluation instead (see predictMany).
func (s *Service) callEngine(ctx context.Context, es *engineState, k kernels.Kernel, g gpu.Spec) (res predict.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = predict.Result{}
			err = fmt.Errorf("serve: backend panic predicting %s: %v", k.Label(), r)
		}
	}()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	return es.eng.PredictKernel(context.WithoutCancel(ctx), predict.Request{Kernel: k, GPU: g})
}

// PredictGraphEngine forecasts the end-to-end latency of gr on g with the
// named engine ("" selects the default) under the paper's
// sequential-execution assumption. Kernels that fail to predict contribute
// their memory-bound fallback, mirroring core.Predictor.PredictGraph. It
// compiles gr into a plan and forecasts that; see predictPlan.
func (s *Service) PredictGraphEngine(ctx context.Context, engine string, gr *graph.Graph, g gpu.Spec) (float64, core.GraphReport, error) {
	return s.predictPlan(ctx, engine, graph.Compile(gr), g)
}

// predictPlan forecasts a compiled graph with a named engine. The plan's
// distinct kernels go through the batched prediction machinery once (cache
// hits served directly, misses collapsed into one backend round, in-flight
// kernels coalesced) and core.FoldPredictions sums them per node. The
// error is non-nil when any kernel fell back to the memory-bound estimate,
// with the report counting them per node — failures are surfaced, not
// silently absorbed into the total.
func (s *Service) predictPlan(ctx context.Context, engine string, pl *graph.Plan, g gpu.Spec) (float64, core.GraphReport, error) {
	es, err := s.engine(engine)
	if err != nil {
		return 0, core.GraphReport{}, err
	}
	s.graphs.Add(1)
	outs, err := s.predictMany(ctx, es, pl.Kernels, g, pl.Counts)
	if err != nil {
		// Whole-batch rejection (saturation): the forecast never ran,
		// so there is no total to fold — callers surface backpressure
		// instead of serving a fallback-assembled number.
		return 0, core.GraphReport{Network: pl.Network}, err
	}
	return core.FoldPredictions(pl, g, func(j int) (float64, error) { return outs[j].Result.Latency, outs[j].Err })
}

// Stats is a point-in-time snapshot of the aggregate service counters,
// the top level of /v2/stats and what the benchmark reads.
type Stats struct {
	Backend        string  `json:"backend"`
	Requests       uint64  `json:"requests"`
	GraphRequests  uint64  `json:"graph_requests"`
	BatchRequests  uint64  `json:"batch_requests"`
	BatchedKernels uint64  `json:"batched_kernels"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheLen       int     `json:"cache_len"`
	HitRate        float64 `json:"hit_rate"`
	Coalesced      uint64  `json:"coalesced"`
	Deduped        uint64  `json:"deduped"`
	Errors         uint64  `json:"errors"`
	Rejected       uint64  `json:"rejected"`
	InFlight       int64   `json:"in_flight"`
	LatencyP50ms   float64 `json:"latency_p50_ms"`
	LatencyP90ms   float64 `json:"latency_p90_ms"`
	LatencyP99ms   float64 `json:"latency_p99_ms"`
	UptimeSec      float64 `json:"uptime_sec"`
}

// EngineStats is one served engine's slice of the counters, exposed on
// /v2/stats and as labeled Prometheus series for every engine the
// service was built with, touched by traffic or not.
type EngineStats struct {
	Engine      string  `json:"engine"`
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Coalesced   uint64  `json:"coalesced"`
	Deduped     uint64  `json:"deduped"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	CacheLen    int     `json:"cache_len"`
	HitRate     float64 `json:"hit_rate"`
	NativeBatch bool    `json:"native_batch"`
	Generation  uint64  `json:"generation"`
}

// Stats returns the current aggregate counters. HitRate is
// hits/(hits+misses), 0 before any traffic. The cache lives as long as the
// service, so its counters, exported to Prometheus as counters, are
// monotonic.
func (s *Service) Stats() Stats {
	hits, misses := s.cache.Counters()
	length := s.cache.Len()
	ps := s.lat.Percentiles(0.50, 0.90, 0.99)
	st := Stats{
		Backend:        s.def,
		Requests:       s.requests.Load(),
		GraphRequests:  s.graphs.Load(),
		BatchRequests:  s.batches.Load(),
		BatchedKernels: s.batchedKernels.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheLen:       length,
		Coalesced:      s.coalesced.Load(),
		Deduped:        s.deduped.Load(),
		Errors:         s.errors.Load(),
		Rejected:       s.rejected.Load(),
		InFlight:       s.inFlight.Load(),
		LatencyP50ms:   ps[0],
		LatencyP90ms:   ps[1],
		LatencyP99ms:   ps[2],
		UptimeSec:      time.Since(s.start).Seconds(),
	}
	if total := hits + misses; total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	return st
}

// engineCacheLen counts the cache entries the engine currently owns. That
// is an O(entries) scan under the cache lock — acceptable because it runs
// only on stats/metrics reads against a bounded cache; if scrape frequency
// ever makes it hurt, replace with per-engine resident counters maintained
// on Put/evict.
func (s *Service) engineCacheLen(es *engineState) int {
	return s.cache.LenFunc(es.owns)
}

// EngineStats returns per-engine counters for every served engine, sorted
// by engine name; an engine no traffic has touched reads zero.
func (s *Service) EngineStats() []EngineStats {
	var out []EngineStats
	for _, es := range s.engines {
		hits, misses := es.cacheHits.Load(), es.cacheMisses.Load()
		st := EngineStats{
			Engine:      es.name,
			Requests:    es.requests.Load(),
			Errors:      es.errors.Load(),
			Coalesced:   es.coalesced.Load(),
			Deduped:     es.deduped.Load(),
			CacheHits:   hits,
			CacheMisses: misses,
			CacheLen:    s.engineCacheLen(es),
			NativeBatch: predict.NativeBatch(es.eng),
			Generation:  predict.Generation(es.eng),
		}
		if total := hits + misses; total > 0 {
			st.HitRate = float64(hits) / float64(total)
		}
		out = append(out, st)
	}
	return out
}
