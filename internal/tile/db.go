package tile

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// Record is one profiled tile observation: which tile the library chose for
// a kernel shape on a GPU, keyed by the features NeuSight may legitimately
// use at prediction time.
type Record struct {
	Op       kernels.Op `json:"op"`
	Dims     []int      `json:"dims"` // kernel output dims
	SMs      int        `json:"sms"`
	L2MB     float64    `json:"l2_mb"`
	PeakTF   float64    `json:"peak_tflops"`
	MemBWGBs float64    `json:"mem_bw_gbs"`
	Tile     []int      `json:"tile"`
}

// DB stores profiled tile records and answers nearest-match queries. All
// methods are safe for concurrent use: Add may interleave freely with
// Lookup/LookupOrSelect. Repeated LookupOrSelect queries for the same
// (kernel, GPU) are served from a memo that Add invalidates, so the hot
// serving path pays the O(records) nearest-match scan only once per unique
// query per database generation.
type DB struct {
	mu      sync.RWMutex
	records []Record

	memoMu sync.Mutex
	memo   map[CacheKey]Tile
	// memoGen is bumped by Add; a scan only memoizes if the generation is
	// unchanged. Atomic rather than memoMu-guarded: Generation() sits on
	// the serving layer's cache-key path, where an exclusive lock shared
	// with the miss-path memo would serialize every cache hit.
	memoGen atomic.Uint64
}

// memoLimit bounds the LookupOrSelect memo; when full the memo is dropped
// wholesale (queries repeat heavily in serving workloads, so the reset
// refills almost immediately with the live working set).
const memoLimit = 8192

// QueryKey fingerprints a (kernel, GPU) prediction query as a string: the
// key of the serve layer's prediction LRU. Kernel.Label encodes operator,
// dimensions, precision, and the fused-op list; GPU specs are registry
// entries uniquely identified by name. The two tile caches below the serve
// layer — the DB memo here and the predictor's tile cache — key on CacheKey
// instead, which is finer (a Label omits FusedFLOPs, FusedBytes and
// ConvInputElems) and costs no string to build.
func QueryKey(k kernels.Kernel, g gpu.Spec) string {
	return k.Label() + "@" + g.Name
}

// CacheKey is the comparable identity of a (kernel, GPU) tile query.
type CacheKey struct {
	Kernel kernels.Key
	GPU    string
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{} }

// Add records the tile observed for kernel k on device g and invalidates
// the LookupOrSelect memo, since the new record may now be a nearer match.
func (db *DB) Add(k kernels.Kernel, g gpu.Spec, t Tile) {
	db.mu.Lock()
	db.records = append(db.records, Record{
		Op: k.Op, Dims: append([]int(nil), k.OutputDims()...),
		SMs: g.SMs, L2MB: g.L2CacheMB, PeakTF: g.PeakFLOPS, MemBWGBs: g.MemoryBWGBs,
		Tile: append([]int(nil), t.Dims...),
	})
	db.mu.Unlock()
	// Clear and bump in one critical section: a reader that observes the
	// new generation must never pair it with a pre-Add memo entry (its memo
	// access serializes behind this lock), and an in-flight scan that
	// started under the old generation re-checks it before memoizing.
	db.memoMu.Lock()
	db.memo = nil
	db.memoGen.Add(1)
	db.memoMu.Unlock()
}

// Generation reports how many times the record set has changed. Callers
// that memoize LookupOrSelect results (e.g. the predictor's tile cache)
// compare generations to notice when a new record may have changed the
// nearest match.
func (db *DB) Generation() uint64 {
	return db.memoGen.Load()
}

// Len reports the number of stored records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Lookup returns the tile of the nearest recorded kernel by log-space
// distance over (output dims, GPU features), restricted to the same
// predictor category (the paper matches on kernel name first). The boolean
// is false when the database holds no record of that category with the
// same output rank.
func (db *DB) Lookup(k kernels.Kernel, g gpu.Spec) (Tile, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	dims := k.OutputDims()
	cat := k.Category()
	best := -1
	bestDist := math.Inf(1)
	for i, r := range db.records {
		if kernels.Categorize(r.Op) != cat || len(r.Dims) != len(dims) {
			continue
		}
		d := 0.0
		for j := range dims {
			d += sqDiffLog(float64(dims[j]), float64(r.Dims[j]))
		}
		d += sqDiffLog(float64(g.SMs), float64(r.SMs))
		d += sqDiffLog(g.L2CacheMB, r.L2MB)
		d += sqDiffLog(g.PeakFLOPS, r.PeakTF)
		d += sqDiffLog(g.MemoryBWGBs, r.MemBWGBs)
		if d < bestDist {
			bestDist, best = d, i
		}
	}
	if best < 0 {
		return Tile{}, false
	}
	return Tile{Dims: append([]int(nil), db.records[best].Tile...)}, true
}

// LookupOrSelect resolves the tile for k on g from profiled data, falling
// back to the library heuristic when the database has no usable record.
// Results are memoized per (kernel, GPU) and invalidated whenever Add
// changes the record set, making repeated serving-path queries O(1).
func (db *DB) LookupOrSelect(k kernels.Kernel, g gpu.Spec) Tile {
	key := CacheKey{k.Key(), g.Name}
	gen := db.memoGen.Load()
	db.memoMu.Lock()
	if t, ok := db.memo[key]; ok {
		db.memoMu.Unlock()
		return t
	}
	db.memoMu.Unlock()

	t, ok := db.Lookup(k, g)
	if !ok {
		t = Select(k, g)
	}

	db.memoMu.Lock()
	// Only memoize if no Add landed during the scan: a fresher record could
	// have changed the nearest match, and a stale cache would pin it.
	if db.memoGen.Load() == gen {
		if db.memo == nil || len(db.memo) >= memoLimit {
			db.memo = make(map[CacheKey]Tile)
		}
		db.memo[key] = t
	}
	db.memoMu.Unlock()
	return t
}

func sqDiffLog(a, b float64) float64 {
	d := math.Log1p(a) - math.Log1p(b)
	return d * d
}

// Save writes the database as JSON to path.
func (db *DB) Save(path string) error {
	db.mu.RLock()
	data, err := json.MarshalIndent(db.records, "", " ")
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadDB reads a database previously written by Save.
func LoadDB(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, err
	}
	return &DB{records: recs}, nil
}
