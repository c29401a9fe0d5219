package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// batchGroup tracks one unique cache-miss key within a batch: the in-flight
// call this batch leads for it, the position that will feed the backend,
// and every other batch position that deduplicates onto it.
type batchGroup struct {
	call   *inflightCall
	leader int
	dups   []int
}

// resolve hands the group's finished call to every batch position that
// shares it.
func (grp *batchGroup) resolve(outs []predict.Outcome, fail func(i int, err error)) {
	for _, i := range append(grp.dups, grp.leader) {
		if grp.call.err != nil {
			fail(i, grp.call.err)
		} else {
			outs[i].Result = grp.call.res
		}
	}
}

// PredictBatchEngine forecasts every kernel in ks on g with the named
// engine ("" selects the default), amortizing one backend evaluation
// across all cache misses. Outcomes are positional: outs[i] answers ks[i].
//
//  1. cache hits are served immediately from the cache;
//  2. identical misses within the batch deduplicate onto one evaluation,
//     and misses already in flight elsewhere (another batch, graph or
//     kernel request on the same engine) coalesce onto that evaluation
//     instead of repeating it;
//  3. the remaining unique misses go to the engine in a single
//     PredictKernels call when it batches natively (one compiled forward
//     pass for the whole set), else per-kernel fan-out under the pool; a
//     lone miss is a PredictKernel call either way.
//
// A failed item (network kernel, untrained category, backend error) reports
// in outs[i].Err without affecting its neighbors. Successful misses
// populate the cache. Safe for arbitrary concurrent use.
//
// Trade-off: every key this batch leads resolves when the batch's single
// backend round completes, so a concurrent request coalescing onto one of
// them waits for the whole round rather than one kernel. That is inherent
// to evaluating the misses in one forward pass — the alternative (not
// registering led keys in flight) would duplicate backend work instead.
func (s *Service) PredictBatchEngine(ctx context.Context, engine string, ks []kernels.Kernel, g gpu.Spec) ([]predict.Outcome, error) {
	es, err := s.engine(engine)
	if err != nil {
		return nil, err
	}
	s.batches.Add(1)
	s.batchedKernels.Add(uint64(len(ks)))
	return s.predictMany(ctx, es, ks, g, nil)
}

// predictMany is the one serving path: a kernel request is a batch of one,
// a graph is a batch of its distinct kernels. It does not touch the
// batch-API counters, so batch_requests / batched_kernels keep meaning
// "client batch calls".
//
// A batch is admitted once against the in-flight bound. A saturated
// service rejects the batch as a whole — the returned error wraps
// ErrSaturated and no per-item work runs — so callers surface backpressure
// (HTTP 503) instead of folding rejections into per-item fallbacks.
//
// counts, when non-nil, says how many requests each kernel answers: a
// graph plan submits each distinct kernel once for counts[i] nodes. The
// request and error counters move by that many, and every request beyond
// the first is deduped — as is every repeat of a key within ks — so
// requests == cache hits + cache misses + deduped for valid kernels.
func (s *Service) predictMany(ctx context.Context, es *engineState, ks []kernels.Kernel, g gpu.Spec, counts []int) ([]predict.Outcome, error) {
	// Admission precedes all accounting: a rejection returns in
	// microseconds, and letting it into the request counters and the
	// latency window would make an overloaded service look fast and busy on
	// dashboards at exactly the moment it is shedding load. Rejections
	// count only in rejected.
	if !s.admit() {
		return nil, fmt.Errorf("serve: over %d requests in flight for a batch of %d: %w",
			s.queue, len(ks), ErrSaturated)
	}
	defer s.release()

	start := time.Now()
	count := func(i int) uint64 {
		if counts == nil {
			return 1
		}
		return uint64(counts[i])
	}
	var total uint64
	for i := range ks {
		total += count(i)
	}
	s.requests.Add(total)
	es.requests.Add(total)
	defer func() { s.lat.Observe(time.Since(start)) }()

	outs := make([]predict.Outcome, len(ks))
	fail := func(i int, err error) {
		outs[i].Err = err
		s.countErrors(es, count(i))
	}
	var deduped uint64
	defer func() {
		s.deduped.Add(deduped)
		es.deduped.Add(deduped)
	}()

	// A caller that is already gone fails fast, before it can lead shared
	// evaluations whose failure would poison coalesced waiters.
	if err := ctx.Err(); err != nil {
		for i := range outs {
			fail(i, err)
		}
		return outs, nil
	}

	// Sort the batch into cache hits, misses we lead, and misses another
	// goroutine is already evaluating. Both kinds of miss deduplicate by
	// key, so a batch full of one kernel costs one evaluation (or one wait)
	// and counts one miss — not one per occurrence.
	groups := map[cacheKey]*batchGroup{}  // keys this batch leads
	waiting := map[cacheKey]*batchGroup{} // keys in flight elsewhere
	var missKeys []cacheKey               // insertion order, so backend input is deterministic
	for i, k := range ks {
		if k.Category() == kernels.CatNetwork {
			fail(i, fmt.Errorf("serve: network kernel %s is priced by the distributed layer, not the kernel predictor", k.Label()))
			continue
		}
		key := es.key(k, g)
		if grp, ok := groups[key]; ok { // duplicate of a miss we lead
			grp.dups = append(grp.dups, i)
			deduped += count(i)
			continue
		}
		if grp, ok := waiting[key]; ok { // duplicate of a coalesced miss
			grp.dups = append(grp.dups, i)
			deduped += count(i)
			continue
		}
		deduped += count(i) - 1
		if v, ok := s.cache.Get(key); ok {
			es.cacheHits.Add(1)
			s.touchTrace(es.name, k, g)
			outs[i].Result = v
			continue
		}
		es.cacheMisses.Add(1)
		s.imu.Lock()
		if call, ok := s.inflight[key]; ok {
			s.imu.Unlock()
			s.coalesced.Add(1)
			es.coalesced.Add(1)
			waiting[key] = &batchGroup{call: call, leader: i}
			continue
		}
		call := &inflightCall{done: make(chan struct{})}
		s.inflight[key] = call
		s.imu.Unlock()
		groups[key] = &batchGroup{call: call, leader: i}
		missKeys = append(missKeys, key)
	}

	// One backend round for every unique miss this batch leads.
	if len(missKeys) > 0 {
		uniq := make([]kernels.Kernel, len(missKeys))
		for j, key := range missKeys {
			uniq[j] = ks[groups[key].leader]
		}
		round := s.runBatchBackend(ctx, es, uniq, g)
		for j, key := range missKeys {
			grp := groups[key]
			grp.call.res, grp.call.err = round[j].Result, round[j].Err
			s.imu.Lock()
			delete(s.inflight, key)
			s.imu.Unlock()
			close(grp.call.done)
			if grp.call.err == nil {
				s.cache.Put(key, grp.call.res)
				s.recordTrace(es.name, ks[grp.leader], g)
			}
			grp.resolve(outs, fail)
		}
	}

	// Collect results from evaluations led elsewhere. These were started
	// before our backend round, so waiting after it never deadlocks.
	for _, grp := range waiting {
		<-grp.call.done
		grp.resolve(outs, fail)
	}
	return outs, nil
}

// runBatchBackend evaluates the unique misses of one batch. A round of one
// kernel is the engine's PredictKernel call, inline. Past that, an engine
// with a native batch path gets the round in one PredictKernels call under
// a single slot of the worker pool (the whole point: one compiled
// forward pass); an engine without one gets per-kernel calls fanned out
// across the pool, preserving the concurrency a cold graph walk had before
// batching existed. An engine panic — or a native batch returning
// mis-sized results — is converted into per-item errors so every in-flight
// call is still resolved; nothing wedges.
func (s *Service) runBatchBackend(ctx context.Context, es *engineState, ks []kernels.Kernel, g gpu.Spec) (outs []predict.Outcome) {
	if len(ks) == 1 {
		outs = make([]predict.Outcome, 1)
		outs[0].Result, outs[0].Err = s.callEngine(ctx, es, ks[0], g)
		return outs
	}
	if predict.NativeBatch(es.eng) {
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("serve: backend panic predicting batch of %d: %v", len(ks), r)
				outs = make([]predict.Outcome, len(ks))
				for i := range outs {
					outs[i].Err = err
				}
			}
		}()
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		reqs := make([]predict.Request, len(ks))
		for i, k := range ks {
			reqs[i] = predict.Request{Kernel: k, GPU: g}
		}
		// Detached from the leader's cancellation: the round's results are
		// shared with coalesced waiters (see callEngine).
		outs = es.eng.PredictKernels(context.WithoutCancel(ctx), reqs)
		if len(outs) != len(ks) {
			panic(fmt.Sprintf("batch engine returned %d results for %d kernels", len(outs), len(ks)))
		}
		return outs
	}

	// Engine without native batching: fan the kernels across the worker
	// pool, one slot per prediction.
	outs = make([]predict.Outcome, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k kernels.Kernel) {
			defer wg.Done()
			outs[i].Result, outs[i].Err = s.callEngine(ctx, es, k, g)
		}(i, k)
	}
	wg.Wait()
	return outs
}
