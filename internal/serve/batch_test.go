package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// batchStub is an engine with native batch support: it records every batch
// size it receives so tests can assert misses were actually batched, not
// looped.
type batchStub struct {
	stubPredictor
	batchCalls atomic.Int64
	mu         sync.Mutex
	sizes      []int
}

func (s *batchStub) engine() predict.Engine { return s }

func (s *batchStub) NativeBatch() bool { return true }

func (s *batchStub) PredictKernel(ctx context.Context, req predict.Request) (predict.Result, error) {
	lat, err := s.stubPredictor.PredictKernel(req.Kernel, req.GPU)
	return predict.Result{Latency: lat, Engine: s.Name(), Source: predict.SourceAnalytical}, err
}

func (s *batchStub) PredictKernels(ctx context.Context, reqs []predict.Request) []predict.Outcome {
	s.batchCalls.Add(1)
	s.mu.Lock()
	s.sizes = append(s.sizes, len(reqs))
	s.mu.Unlock()
	outs := make([]predict.Outcome, len(reqs))
	for i, req := range reqs {
		outs[i].Result, outs[i].Err = s.PredictKernel(ctx, req)
	}
	return outs
}

func (s *batchStub) recordedSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sizes...)
}

func TestPredictBatchDedupsAndCaches(t *testing.T) {
	stub := &batchStub{stubPredictor: stubPredictor{latency: 2.5}}
	svc := serviceOf(stub.engine(), Config{CacheSize: 64})
	g := gpu.MustLookup("V100")

	k1 := kernels.NewBMM(2, 64, 64, 64)
	k2 := kernels.NewSoftmax(128, 128)
	k3 := kernels.NewLayerNorm(64, 256)
	// Prime the cache with k1.
	if _, err := predictKernel(svc, k1, g); err != nil {
		t.Fatal(err)
	}

	ks := []kernels.Kernel{k1, k2, k2, kernels.Kernel{Op: kernels.OpAllReduce, B: 4096, M: 1}, k2, k3}
	lats, errs := predictBatch(svc, ks, g)

	if errs[0] != nil || lats[0] != 2.5 {
		t.Errorf("cached item = (%v, %v), want hit", lats[0], errs[0])
	}
	for _, i := range []int{1, 2, 4, 5} {
		if errs[i] != nil || lats[i] != 2.5 {
			t.Errorf("item %d = (%v, %v), want 2.5", i, lats[i], errs[i])
		}
	}
	if errs[3] == nil {
		t.Error("network kernel must fail in place")
	}
	// The three k2 occurrences must deduplicate onto ONE backend item, in
	// ONE batched call with k3; k1 must not reach the backend again.
	if got := stub.recordedSizes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("backend batch sizes = %v, want [2]", got)
	}
	st := svc.Stats()
	if st.BatchRequests != 1 || st.BatchedKernels != 6 {
		t.Errorf("batch stats = %d calls / %d kernels, want 1/6", st.BatchRequests, st.BatchedKernels)
	}
	if st.CacheLen != 3 {
		t.Errorf("cache len = %d, want 3 (k1, k2 and k3)", st.CacheLen)
	}
	// A follow-up batch is served entirely from cache.
	predictBatch(svc, []kernels.Kernel{k1, k2, k3}, g)
	if got := stub.batchCalls.Load(); got != 1 {
		t.Errorf("backend batch calls = %d, want 1 (second batch fully cached)", got)
	}
}

// TestPredictBatchFallsBackWithoutBatchBackend: an engine without a native
// batch path still works — unique misses are evaluated per kernel, fanned
// across the worker pool rather than serialized under one slot.
func TestPredictBatchFallsBackWithoutBatchBackend(t *testing.T) {
	stub := &stubPredictor{latency: 1.5, gate: make(chan struct{})}
	svc := serviceOf(stub.engine(), Config{CacheSize: 64, Workers: 4})
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{
		kernels.NewBMM(1, 16, 16, 16),
		kernels.NewBMM(1, 32, 32, 32),
		kernels.NewBMM(1, 48, 48, 48),
		kernels.NewBMM(1, 16, 16, 16), // dup
	}
	done := make(chan struct{})
	var lats []float64
	var errs []error
	go func() {
		defer close(done)
		lats, errs = predictBatch(svc, ks, g)
	}()
	// The three unique misses must run concurrently (pool fan-out), not
	// serialized under a single slot.
	waitFor(t, "3 concurrent fallback predictions", func() bool { return stub.active.Load() == 3 })
	close(stub.gate)
	<-done
	for i := range ks {
		if errs[i] != nil || lats[i] != 1.5 {
			t.Errorf("item %d = (%v, %v), want 1.5", i, lats[i], errs[i])
		}
	}
	if got := stub.calls.Load(); got != 3 {
		t.Errorf("backend calls = %d, want 3 (dup deduplicated)", got)
	}
}

// TestPredictGraphDoesNotCountAsBatchRequest: batch_requests/batched_kernels
// track client batch calls only; internal graph batching must not move them.
func TestPredictGraphDoesNotCountAsBatchRequest(t *testing.T) {
	stub := &stubPredictor{latency: 1}
	svc := serviceOf(stub.engine(), Config{CacheSize: 16})
	gr := graph.New("t")
	a := gr.Add(kernels.NewBMM(2, 64, 64, 64))
	gr.Add(kernels.NewSoftmax(128, 64), a)
	predictGraph(svc, gr, gpu.MustLookup("V100"))
	st := svc.Stats()
	if st.BatchRequests != 0 || st.BatchedKernels != 0 {
		t.Errorf("graph traffic moved batch counters: %d/%d, want 0/0", st.BatchRequests, st.BatchedKernels)
	}
	if st.Requests != 2 || st.GraphRequests != 1 {
		t.Errorf("requests/graphs = %d/%d, want 2/1", st.Requests, st.GraphRequests)
	}
}

// TestPredictBatchCoalescesWithInflightSingles: a batch containing a key
// that a concurrent kernel request is already evaluating must wait for that
// evaluation rather than repeating it.
func TestPredictBatchCoalescesWithInflightSingles(t *testing.T) {
	stub := &batchStub{stubPredictor: stubPredictor{latency: 7, gate: make(chan struct{})}}
	svc := serviceOf(stub.engine(), Config{CacheSize: 64, Workers: 4})
	g := gpu.MustLookup("V100")
	k1 := kernels.NewBMM(4, 48, 48, 48)
	k2 := kernels.NewLayerNorm(64, 256)
	k3 := kernels.NewSoftmax(32, 64)

	// Lead k1 with a kernel request, blocked on the gate.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		predictKernel(svc, k1, g)
	}()
	waitFor(t, "k1 in flight", func() bool { return stub.active.Load() == 1 })

	// The batch leads k2 and k3 itself but must coalesce onto the in-flight
	// k1 — once, not once per duplicate occurrence of k1.
	done := make(chan struct{})
	var lats []float64
	var errs []error
	go func() {
		defer close(done)
		lats, errs = predictBatch(svc, []kernels.Kernel{k1, k1, k2, k1, k3}, g)
	}()
	waitFor(t, "batch coalesced onto k1", func() bool { return svc.Stats().Coalesced == 1 })
	close(stub.gate)
	wg.Wait()
	<-done

	for i := range lats {
		if errs[i] != nil || lats[i] != 7 {
			t.Errorf("item %d = (%v, %v), want 7", i, lats[i], errs[i])
		}
	}
	// k1 was the kernel request's; only k2 and k3 reached the batch backend.
	if got := stub.recordedSizes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("backend batch sizes = %v, want [2]", got)
	}
	st := svc.Stats()
	if st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1 (duplicates must not re-coalesce)", st.Coalesced)
	}
	// Misses: one for the kernel request's k1, one for k1 in the batch, one
	// each for k2 and k3 — duplicate occurrences of an in-flight key count
	// nothing.
	if st.CacheMisses != 4 {
		t.Errorf("cache misses = %d, want 4 (duplicates of an in-flight key must not count)", st.CacheMisses)
	}
}

// TestPredictBatchBackendPanicFailsItemsWithoutWedging: a panic inside a
// native batch round fails every item, and no key stays in flight.
func TestPredictBatchBackendPanicFailsItemsWithoutWedging(t *testing.T) {
	stub := &batchStub{stubPredictor: stubPredictor{latency: 3}}
	svc := serviceOf(stub.engine(), Config{CacheSize: 64, Workers: 1})
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{kernels.NewBMM(2, 40, 40, 40), kernels.NewSoftmax(32, 64)}

	stub.panicOnce.Store(true)
	_, errs := predictBatch(svc, ks, g)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Errorf("item %d error = %v, want backend panic error", i, err)
		}
	}
	// Keys must not be wedged and the pool slot must be free.
	lats, errs := predictBatch(svc, ks, g)
	for i := range ks {
		if errs[i] != nil || lats[i] != 3 {
			t.Errorf("retry item %d = (%v, %v), want 3", i, lats[i], errs[i])
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	svc := serviceOf((&stubPredictor{latency: 1}).engine(), Config{CacheSize: 16})
	lats, errs := predictBatch(svc, nil, gpu.MustLookup("V100"))
	if len(lats) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(lats), len(errs))
	}
}

// TestPredictBatchConcurrent drives many overlapping batches (run under
// -race by scripts/check.sh): every item must resolve to the right value
// and the cache must converge to one entry per unique kernel.
func TestPredictBatchConcurrent(t *testing.T) {
	stub := &batchStub{stubPredictor: stubPredictor{latency: 2}}
	svc := serviceOf(stub.engine(), Config{CacheSize: 256})
	g := gpu.MustLookup("H100")
	var pool []kernels.Kernel
	for i := 0; i < 24; i++ {
		pool = append(pool, kernels.NewBMM(1, 8+i, 8, 8))
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				lo := (w + iter) % (len(pool) - 11) // windows cover every pool index
				ks := pool[lo : lo+12]
				lats, errs := predictBatch(svc, ks, g)
				for i := range ks {
					if errs[i] != nil {
						errCh <- errs[i]
						return
					}
					if lats[i] != 2 {
						errCh <- fmt.Errorf("unexpected batch latency %v", lats[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := int(stub.calls.Load()); got < len(pool) {
		t.Errorf("backend evaluations = %d, want >= %d (every unique kernel)", got, len(pool))
	}
	if got := svc.Stats().CacheLen; got != len(pool) {
		t.Errorf("cache len = %d, want %d", got, len(pool))
	}
}
