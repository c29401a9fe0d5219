package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// TestEngineSetFixedAtStart pins the engine table NewMulti builds: every
// engine registered by then is listed in name order, an untouched one at
// zero, and an engine registered afterwards is not served.
func TestEngineSetFixedAtStart(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("beta", 2))
	reg.MustRegister(constEngine("alpha", 1))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	ctx := context.Background()
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 64, 64, 64)
	if _, err := svc.PredictKernelEngine(ctx, "", k, g); err != nil {
		t.Fatal(err)
	}

	es := svc.EngineStats()
	if len(es) != 2 || es[0].Engine != "alpha" || es[1].Engine != "beta" {
		t.Fatalf("engine stats = %+v, want alpha then beta", es)
	}
	if es[0].Requests != 1 || es[0].CacheLen != 1 {
		t.Errorf("alpha stats = %+v, want 1 request and 1 entry", es[0])
	}
	if untouched := (EngineStats{Engine: "beta", NativeBatch: es[1].NativeBatch}); es[1] != untouched {
		t.Errorf("untouched beta stats = %+v, want zeros", es[1])
	}

	reg.MustRegister(constEngine("late", 3))
	_, err := svc.PredictKernelEngine(ctx, "late", k, g)
	if !errors.Is(err, predict.ErrUnknownEngine) || !strings.Contains(err.Error(), "alpha, beta") {
		t.Errorf("engine registered after start-up = %v, want ErrUnknownEngine naming alpha, beta", err)
	}
	if n := len(svc.EngineStats()); n != 2 {
		t.Errorf("engine stats list %d engines after a late registration, want 2", n)
	}
}

// TestInvalidateEngine pins the cluster layer's invalidation hook: only
// the named engine's cached forecasts drop from the cache it shares with
// other engines.
func TestInvalidateEngine(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	reg.MustRegister(constEngine("beta", 2))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 64, 64, 64)
	ctx := context.Background()
	svc.PredictKernelEngine(ctx, "alpha", k, g)
	svc.PredictKernelEngine(ctx, "beta", k, g)

	if n := svc.InvalidateEngine("ghost"); n != 0 {
		t.Errorf("invalidating an unknown engine dropped %d", n)
	}
	if n := svc.InvalidateEngine("alpha"); n != 1 {
		t.Errorf("InvalidateEngine(alpha) = %d, want 1", n)
	}
	if st := svc.Stats(); st.CacheLen != 1 {
		t.Errorf("cache len after invalidate = %d, want beta's 1 entry untouched", st.CacheLen)
	}
	// alpha refills on the next request; beta was never disturbed.
	missesBefore := svc.Stats().CacheMisses
	svc.PredictKernelEngine(ctx, "alpha", k, g)
	svc.PredictKernelEngine(ctx, "beta", k, g)
	if misses := svc.Stats().CacheMisses - missesBefore; misses != 1 {
		t.Errorf("misses after invalidate = %d, want 1 (alpha only)", misses)
	}
}

// stubPredictor is a deterministic backend that counts calls, tracks its
// maximum observed concurrency, and can hold every call on a gate so tests
// can pile up concurrent requests deliberately.
type stubPredictor struct {
	latency   float64
	fail      bool
	panicOnce atomic.Bool   // when set, the next call panics (then resets)
	gate      chan struct{} // when non-nil, calls block until the gate closes

	calls   atomic.Int64
	active  atomic.Int64
	maxSeen atomic.Int64
}

func (s *stubPredictor) Name() string { return "stub" }

func (s *stubPredictor) PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error) {
	s.calls.Add(1)
	cur := s.active.Add(1)
	for {
		prev := s.maxSeen.Load()
		if cur <= prev || s.maxSeen.CompareAndSwap(prev, cur) {
			break
		}
	}
	if s.gate != nil {
		<-s.gate
	}
	s.active.Add(-1)
	if s.panicOnce.CompareAndSwap(true, false) {
		panic("stub panic")
	}
	if s.fail {
		return 0, errors.New("stub failure")
	}
	return s.latency, nil
}

// engine puts the stub behind the Engine contract, named "stub".
func (s *stubPredictor) engine() predict.Engine {
	return predict.NewFuncEngine(s.Name(), predict.SourceAnalytical, s.PredictKernel)
}

// serviceOf serves eng as the single, default engine.
func serviceOf(eng predict.Engine, cfg Config) *Service {
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	return NewMulti(reg, eng.Name(), cfg)
}

// predictKernel asks the default engine for one kernel's latency.
func predictKernel(s *Service, k kernels.Kernel, g gpu.Spec) (float64, error) {
	res, err := s.PredictKernelEngine(context.Background(), "", k, g)
	return res.Latency, err
}

// predictBatch asks the default engine for a batch, as positional
// latencies and errors; a whole-batch rejection fails every item.
func predictBatch(s *Service, ks []kernels.Kernel, g gpu.Spec) (lats []float64, errs []error) {
	outs, err := s.PredictBatchEngine(context.Background(), "", ks, g)
	lats = make([]float64, len(ks))
	errs = make([]error, len(ks))
	for i := range ks {
		if err != nil {
			errs[i] = err
			continue
		}
		lats[i], errs[i] = outs[i].Result.Latency, outs[i].Err
	}
	return lats, errs
}

// predictGraph asks the default engine for a graph's end-to-end latency.
func predictGraph(s *Service, gr *graph.Graph, g gpu.Spec) float64 {
	lat, _, _ := s.PredictGraphEngine(context.Background(), "", gr, g)
	return lat
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCacheHitMissAccounting(t *testing.T) {
	stub := &stubPredictor{latency: 1.25}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	g := gpu.MustLookup("V100")
	k1 := kernels.NewBMM(4, 128, 128, 128)
	k2 := kernels.NewLinear(64, 256, 256)

	for i := 0; i < 3; i++ {
		l, err := predictKernel(svc, k1, g)
		if err != nil {
			t.Fatalf("PredictKernel: %v", err)
		}
		if l != 1.25 {
			t.Fatalf("latency = %v, want 1.25", l)
		}
	}
	if _, err := predictKernel(svc, k2, g); err != nil {
		t.Fatalf("PredictKernel k2: %v", err)
	}

	st := svc.Stats()
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2 (one per unique kernel)", got)
	}
	if st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", st.CacheHits, st.CacheMisses)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
	if st.Requests != 4 {
		t.Errorf("requests = %d, want 4", st.Requests)
	}
	if st.CacheLen != 2 {
		t.Errorf("cache len = %d, want 2", st.CacheLen)
	}
}

func TestCacheDistinguishesGPUAndDType(t *testing.T) {
	stub := &stubPredictor{latency: 2}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	k := kernels.NewBMM(2, 64, 64, 64)

	predictKernel(svc, k, gpu.MustLookup("V100"))
	predictKernel(svc, k, gpu.MustLookup("H100"))
	predictKernel(svc, k.WithDType(kernels.FP16), gpu.MustLookup("H100"))

	if got := stub.calls.Load(); got != 3 {
		t.Errorf("backend calls = %d, want 3 (distinct GPU and dtype must not collide)", got)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	stub := &stubPredictor{fail: true}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 32, 32, 32)

	for i := 0; i < 2; i++ {
		if _, err := predictKernel(svc, k, g); err == nil {
			t.Fatal("expected error from failing backend")
		}
	}
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2 (errors must not populate the cache)", got)
	}
	if st := svc.Stats(); st.Errors != 2 || st.CacheLen != 0 {
		t.Errorf("errors/cacheLen = %d/%d, want 2/0", st.Errors, st.CacheLen)
	}
}

func TestNetworkKernelRejected(t *testing.T) {
	stub := &stubPredictor{latency: 1}
	svc := serviceOf(stub.engine(), Config{})
	if _, err := predictKernel(svc, kernels.Kernel{Op: kernels.OpAllReduce, B: 1024, M: 1}, gpu.MustLookup("V100")); err == nil {
		t.Fatal("expected network kernels to be rejected")
	}
	if got := stub.calls.Load(); got != 0 {
		t.Errorf("backend calls = %d, want 0", got)
	}
}

// TestCoalescingSharesOneBackendCall: identical misses in flight at once —
// kernel requests and one-kernel batches alike, they are the same path —
// cost one backend call.
func TestCoalescingSharesOneBackendCall(t *testing.T) {
	stub := &stubPredictor{latency: 3.5, gate: make(chan struct{})}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16, Workers: 8})
	g := gpu.MustLookup("V100")
	k := kernels.NewSoftmax(512, 512)

	const n = 8
	results := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i], errs[i] = predictKernel(svc, k, g)
				return
			}
			lats, berrs := predictBatch(svc, []kernels.Kernel{k}, g)
			results[i], errs[i] = lats[0], berrs[0]
		}(i)
	}

	// One request reaches the backend and blocks on the gate; the other
	// seven must coalesce behind it rather than duplicating the call.
	waitFor(t, "7 coalesced waiters", func() bool { return svc.Stats().Coalesced == n-1 })
	close(stub.gate)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != 3.5 {
			t.Fatalf("request %d latency = %v, want 3.5", i, results[i])
		}
	}
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("backend calls = %d, want 1 (identical in-flight requests must coalesce)", got)
	}
	if st := svc.Stats(); st.CacheLen != 1 || st.CacheMisses != n {
		t.Errorf("cache len/misses = %d/%d, want 1/%d", st.CacheLen, st.CacheMisses, n)
	}
	if e := svc.EngineStats()[0]; e.Coalesced != n-1 {
		t.Errorf("engine coalesced = %d, want %d", e.Coalesced, n-1)
	}
}

func TestWorkerPoolBoundsBackendConcurrency(t *testing.T) {
	stub := &stubPredictor{latency: 1, gate: make(chan struct{})}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16, Workers: 2})
	g := gpu.MustLookup("V100")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			predictKernel(svc, kernels.NewBMM(1, 8+i, 8, 8), g) // all distinct: no coalescing
		}(i)
	}
	waitFor(t, "2 backend calls in flight", func() bool { return stub.active.Load() == 2 })
	// Give the remaining six a chance to (incorrectly) enter the backend.
	time.Sleep(20 * time.Millisecond)
	if got := stub.active.Load(); got != 2 {
		t.Errorf("in-flight backend calls = %d, want 2", got)
	}
	close(stub.gate)
	wg.Wait()
	if got := stub.maxSeen.Load(); got > 2 {
		t.Errorf("max backend concurrency = %d, want <= 2", got)
	}
	if got := stub.calls.Load(); got != 8 {
		t.Errorf("backend calls = %d, want 8", got)
	}
}

func TestBackendPanicDoesNotWedgeKey(t *testing.T) {
	stub := &stubPredictor{latency: 6}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(3, 48, 48, 48)

	stub.panicOnce.Store(true)
	if _, err := predictKernel(svc, k, g); err == nil {
		t.Fatal("expected the backend panic to surface as an error")
	}
	// The key must not be wedged: the next request runs the backend again
	// and succeeds (the worker-pool slot was released too, or this would
	// deadlock with Workers=1).
	svc2 := serviceOf(stub.engine(), Config{CacheSize: 16, Workers: 1})
	stub.panicOnce.Store(true)
	if _, err := predictKernel(svc2, k, g); err == nil {
		t.Fatal("expected panic error")
	}
	l, err := predictKernel(svc2, k, g)
	if err != nil {
		t.Fatalf("key wedged after backend panic: %v", err)
	}
	if l != 6 {
		t.Fatalf("latency = %v, want 6", l)
	}
	if st := svc2.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

func TestPredictGraphSumsAndSkipsNetwork(t *testing.T) {
	stub := &stubPredictor{latency: 2.5}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	g := gpu.MustLookup("V100")

	gr := graph.New("test")
	a := gr.Add(kernels.NewBMM(2, 64, 64, 64))
	b := gr.Add(kernels.NewSoftmax(128, 64), a)
	gr.Add(kernels.Kernel{Op: kernels.OpAllReduce, B: 4096, M: 1}, b) // must contribute 0
	gr.Add(kernels.NewBMM(2, 64, 64, 64), b)

	total := predictGraph(svc, gr, g)
	if want := 3 * 2.5; total != want {
		t.Errorf("graph latency = %v, want %v", total, want)
	}
	// The two identical BMMs share one cache entry.
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2", got)
	}
	if st := svc.Stats(); st.GraphRequests != 1 {
		t.Errorf("graph requests = %d, want 1", st.GraphRequests)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache[string, predict.Result](2)
	c.Put("a", predict.Result{Latency: 1})
	c.Put("b", predict.Result{Latency: 2})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", predict.Result{Latency: 3})
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestInvalidateEngineForcesReprediction: dropping an engine's cached
// forecasts sends its next request to the backend and keeps the counters.
func TestInvalidateEngineForcesReprediction(t *testing.T) {
	stub := &stubPredictor{latency: 1}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 24, 24, 24)

	predictKernel(svc, k, g)
	predictKernel(svc, k, g) // hit
	if n := svc.InvalidateEngine("stub"); n != 1 || svc.Stats().CacheLen != 0 {
		t.Fatalf("invalidate dropped %d entries leaving %d, want 1 and 0", n, svc.Stats().CacheLen)
	}
	predictKernel(svc, k, g) // must reach the backend again
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2 after invalidation", got)
	}
	if st := svc.Stats(); st.CacheHits != 1 {
		t.Errorf("hits = %d, want counters preserved across invalidation", st.CacheHits)
	}
}

func TestDisabledCacheNeverStores(t *testing.T) {
	stub := &stubPredictor{latency: 1}
	svc := serviceOf(stub.engine(), Config{CacheSize: -1})
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 16, 16, 16)
	predictKernel(svc, k, g)
	predictKernel(svc, k, g)
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2 with caching disabled", got)
	}
}

func TestLatencyPercentilesPopulate(t *testing.T) {
	stub := &stubPredictor{latency: 1}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	g := gpu.MustLookup("V100")
	for i := 0; i < 10; i++ {
		predictKernel(svc, kernels.NewBMM(1, 4+i, 4, 4), g)
	}
	st := svc.Stats()
	if st.LatencyP99ms < st.LatencyP50ms {
		t.Errorf("p99 %v < p50 %v", st.LatencyP99ms, st.LatencyP50ms)
	}
	if st.LatencyP99ms <= 0 {
		t.Errorf("p99 = %v, want > 0", st.LatencyP99ms)
	}
}
