package serve

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"neusight/internal/predict"
	"neusight/internal/ring"
)

// ErrSaturated is wrapped by prediction calls rejected by per-shard
// backpressure: the target shard already has its maximum number of
// requests in flight, so the request is refused immediately instead of
// queueing without bound. HTTP maps it to 503; clients should back off
// and retry.
var ErrSaturated = errors.New("serve: shard saturated")

// DefaultShardQueue bounds how many requests may be in flight on one
// shard (executing plus waiting on its worker pool or coalesced calls)
// before further arrivals are rejected with ErrSaturated. Large enough
// that only genuine overload trips it, small enough that overload is
// reported as backpressure rather than unbounded memory growth.
const DefaultShardQueue = 1024

// partition is one shard, the serving lock domain: it owns a cache, an
// in-flight coalescing table, a worker-pool semaphore, and a bounded
// queue. The service speaks to exactly one shard per request — the one
// its (engine, GPU) key hashes to. Config.Shards of them are built at
// startup (default one) and the set never changes.
type partition struct {
	shard int // shard index
	cache *lruCache[cacheKey, predict.Result]
	sem   chan struct{}
	// maxInFlight is the saturation bound; 0 disables backpressure.
	maxInFlight int

	mu       sync.Mutex
	inflight map[cacheKey]*inflightCall

	requests  atomic.Uint64
	errors    atomic.Uint64
	coalesced atomic.Uint64
	rejected  atomic.Uint64
	inFlight  atomic.Int64
}

// newPartition returns a shard with its own cache and a workers-slot pool.
func newPartition(shard, cacheSize, workers, maxInFlight int) *partition {
	return &partition{
		shard:       shard,
		cache:       newLRUCache[cacheKey, predict.Result](cacheSize),
		sem:         make(chan struct{}, workers),
		maxInFlight: maxInFlight,
		inflight:    map[cacheKey]*inflightCall{},
	}
}

// admit applies the shard's saturation bound, reserving an in-flight slot
// on success. Callers must release() the slot when the request completes.
// A partition without a bound always admits. The bound is exact under
// concurrency: the slot is taken first and handed back on rejection, so
// racing arrivals cannot all pass a stale load.
func (p *partition) admit() bool {
	n := p.inFlight.Add(1)
	if p.maxInFlight > 0 && n > int64(p.maxInFlight) {
		p.inFlight.Add(-1)
		p.rejected.Add(1)
		return false
	}
	return true
}

// release returns an in-flight slot reserved by admit.
func (p *partition) release() { p.inFlight.Add(-1) }

// shardRouter assigns (affinity, GPU) keys to a fixed set of shards by
// consistent hashing (internal/ring, labels "shard-<i>"). Assignments are
// memoized per key; the memo doubles as the "which keys live where" table
// behind per-shard stats, and is rebuilt on rebalance so keys of
// unregistered engines drop out.
type shardRouter struct {
	shards []*partition
	ring   *ring.Ring

	// assign memoizes ring lookups as an immutable copy-on-write snapshot,
	// two-level (affinity, then GPU): the hot path is two map reads off an
	// atomic load — no lock, no composite-key allocation. wmu serializes
	// the (rare) snapshot writers: one per novel key per rebalance epoch.
	// epoch bumps on invalidate; a lookup that started before an
	// invalidate must not publish its (possibly unregistered) key into the
	// fresh memo, so writers re-check the epoch under wmu.
	assign atomic.Pointer[map[string]map[string]*partition]
	wmu    sync.Mutex
	epoch  atomic.Uint64
}

// newShardRouter builds n shards, each with cacheSize cache entries, a
// workers-slot pool, and a maxInFlight saturation bound (0 disables
// backpressure).
func newShardRouter(n, cacheSize, workers, maxInFlight int) *shardRouter {
	r := &shardRouter{shards: make([]*partition, n)}
	empty := map[string]map[string]*partition{}
	r.assign.Store(&empty)
	labels := make([]string, n)
	for i := range r.shards {
		r.shards[i] = newPartition(i, cacheSize, workers, maxInFlight)
		labels[i] = "shard-" + strconv.Itoa(i)
	}
	r.ring = ring.New(labels)
	return r
}

// shardFor resolves the shard owning the (affinity, GPU) key, memoizing
// the ring lookup.
func (r *shardRouter) shardFor(affinity, gpuName string) *partition {
	epoch := r.epoch.Load()
	if p := (*r.assign.Load())[affinity][gpuName]; p != nil {
		return p
	}
	p := r.shards[r.ring.Owner(affinity+"|"+gpuName)]

	// Publish a new snapshot with the assignment added — unless an
	// invalidate ran since this lookup started, in which case the key may
	// belong to an engine that just unregistered: route the request (p is
	// still correct by the ring) but leave the fresh memo clean. The clone
	// is a handful of engines x GPUs and runs once per novel key per epoch.
	r.wmu.Lock()
	if r.epoch.Load() == epoch {
		cur := *r.assign.Load()
		next := make(map[string]map[string]*partition, len(cur)+1)
		for aff, byGPU := range cur {
			next[aff] = byGPU
		}
		byGPU := make(map[string]*partition, len(cur[affinity])+1)
		for g, sp := range cur[affinity] {
			byGPU[g] = sp
		}
		byGPU[gpuName] = p
		next[affinity] = byGPU
		r.assign.Store(&next)
	}
	r.wmu.Unlock()
	return p
}

// invalidate drops the assignment memo. Ring lookups are deterministic,
// so routing is unchanged; what the rebuild achieves is forgetting keys
// of engines that unregistered, so stats and key counts stay honest.
func (r *shardRouter) invalidate() {
	r.wmu.Lock()
	r.epoch.Add(1)
	empty := map[string]map[string]*partition{}
	r.assign.Store(&empty)
	r.wmu.Unlock()
}

// keyCounts returns how many memoized (engine, GPU) keys each shard
// currently owns, indexed by shard id.
func (r *shardRouter) keyCounts() []int {
	counts := make([]int, len(r.shards))
	for _, byGPU := range *r.assign.Load() {
		for _, p := range byGPU {
			counts[p.shard]++
		}
	}
	return counts
}

// ShardStats is one shard's slice of the counters, exposed in the
// "shards" section of /v2/stats and as shard-labeled Prometheus series.
type ShardStats struct {
	Shard       int     `json:"shard"`
	Keys        int     `json:"keys"` // (engine, GPU) keys routed here so far
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Coalesced   uint64  `json:"coalesced"`
	Rejected    uint64  `json:"rejected"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	CacheLen    int     `json:"cache_len"`
	HitRate     float64 `json:"hit_rate"`
	InFlight    int64   `json:"in_flight"`
}

// Shards returns per-shard counters, one entry per shard in id order.
func (s *Service) Shards() []ShardStats {
	keys := s.router.keyCounts()
	out := make([]ShardStats, len(s.router.shards))
	for i, p := range s.router.shards {
		hits, misses := p.cache.Counters()
		st := ShardStats{
			Shard:       p.shard,
			Keys:        keys[i],
			Requests:    p.requests.Load(),
			Errors:      p.errors.Load(),
			Coalesced:   p.coalesced.Load(),
			Rejected:    p.rejected.Load(),
			CacheHits:   hits,
			CacheMisses: misses,
			CacheLen:    p.cache.Len(),
			InFlight:    p.inFlight.Load(),
		}
		if total := hits + misses; total > 0 {
			st.HitRate = float64(hits) / float64(total)
		}
		out[i] = st
	}
	return out
}

// NumShards returns how many shards the service routes across.
func (s *Service) NumShards() int { return len(s.router.shards) }

// Rebalance reconciles the service's routing state with the current
// registry: states of engines that unregistered (or were replaced by a new
// instance under the same name) are dropped, their cached forecasts
// evicted from every shard, and the shard assignment memo rebuilt. Shard
// cache counters live on the fixed shard set, so the aggregate hit/miss
// counters keep their history. It
// runs automatically when the registry version drifts from the one the
// service last observed — explicit calls are only needed by callers that
// want eviction to happen eagerly rather than on the next request.
func (s *Service) Rebalance() {
	// Record the version first: a registration racing this rebalance
	// bumps the version after our read and triggers another pass, rather
	// than being masked by a later read.
	v := s.reg.Version()
	s.regVersion.Store(v)

	var stale []*engineState
	s.emu.Lock()
	for name, es := range s.engines {
		cur, err := s.reg.Get(name)
		if err != nil || cur != es.eng {
			delete(s.engines, name)
			stale = append(stale, es)
		}
	}
	s.emu.Unlock()

	if len(stale) == 0 {
		return
	}
	// Shard caches are shared across engines, so evict each stale engine's
	// key slice from every shard.
	for _, es := range stale {
		for _, p := range s.router.shards {
			p.cache.DropFunc(es.owns)
		}
	}
	s.router.invalidate()
}

// maybeRebalance triggers a rebalance when engines have registered or
// unregistered since the last one. The steady-state cost is one atomic
// load per request.
func (s *Service) maybeRebalance() {
	if s.regVersion.Load() != s.reg.Version() {
		s.Rebalance()
	}
}
