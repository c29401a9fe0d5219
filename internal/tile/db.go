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
// methods are safe for concurrent use. LookupOrSelect answers repeated
// (kernel, GPU) queries from a single-flight memo that Add invalidates, so
// each unique query pays the O(records) scan once per database generation.
type DB struct {
	mu      sync.RWMutex
	records []Record

	memoMu sync.Mutex
	memo   map[CacheKey]*memoEntry
	// memoGen counts Adds. Atomic rather than memoMu-guarded: Generation()
	// sits on the serving layer's cache-key path, where an exclusive lock
	// shared with the miss-path memo would serialize every cache hit.
	memoGen atomic.Uint64
}

// memoEntry is one memo slot: the caller that finds its key cold scans, and
// callers arriving meanwhile wait on done. resolved (under memoMu) is false
// while the scan runs and after one that panicked. A slot that Add or a
// full memo drops mid-scan serves only the callers already waiting on it.
type memoEntry struct {
	done     chan struct{}
	t        Tile
	resolved bool
}

// memoLimit bounds the LookupOrSelect memo; when full the memo is dropped
// wholesale (queries repeat heavily in serving workloads, so the reset
// refills almost immediately with the live working set).
const memoLimit = 8192

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
	// Clear and bump in one critical section, after the record is in: a slot
	// claimed from here on scans a record set that holds it.
	db.memoMu.Lock()
	db.memo = nil
	db.memoGen.Add(1)
	db.memoMu.Unlock()
}

// Generation reports how many times the record set has changed: a new
// record may change a nearest match, and so a forecast.
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
// Results are memoized per (kernel, GPU) until Add changes the record set,
// and concurrent cold queries of one key share one scan; a scan that
// panics panics its own caller, and its waiters retry.
func (db *DB) LookupOrSelect(k kernels.Kernel, g gpu.Spec) Tile {
	key := CacheKey{k.Key(), g.Name}
	db.memoMu.Lock()
	if e := db.memo[key]; e != nil {
		resolved := e.resolved
		db.memoMu.Unlock()
		if !resolved {
			<-e.done
			if !e.resolved { // its scan panicked and left the memo
				return db.LookupOrSelect(k, g)
			}
		}
		return e.t
	}
	e := &memoEntry{done: make(chan struct{})}
	if db.memo == nil || len(db.memo) >= memoLimit {
		db.memo = make(map[CacheKey]*memoEntry)
	}
	db.memo[key] = e
	db.memoMu.Unlock()
	ok := false
	defer func() {
		db.memoMu.Lock()
		if e.resolved = ok; !ok && db.memo[key] == e {
			delete(db.memo, key)
		}
		db.memoMu.Unlock()
		close(e.done)
	}()
	t, found := db.Lookup(k, g)
	if !found {
		t = Select(k, g)
	}
	if scanDone != nil {
		scanDone()
	}
	e.t, ok = t, true
	return t
}

// Memoized is LookupOrSelect's hit path alone: the memoized tile for k on
// g if its scan has finished. It never scans.
func (db *DB) Memoized(k *kernels.Kernel, g gpu.Spec) (t Tile, ok bool) {
	db.memoMu.Lock()
	if e := db.memo[CacheKey{k.Key(), g.Name}]; e != nil && e.resolved {
		t, ok = e.t, true
	}
	db.memoMu.Unlock()
	return t, ok
}

// scanDone, when set, runs after every scan: the tests' handle on a scan
// in flight.
var scanDone func()

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
