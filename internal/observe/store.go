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
	"fmt"
	"os"
	"sync"

	"neusight/internal/jsonl"
	"neusight/internal/kernels"
)

// Record is one persisted observation: a (engine, kernel, GPU) key plus
// the latency a client measured for it, serialized with the operator's
// canonical name so a store written by one build replays in another. The
// JSONL framing mirrors the serve package's workload traces.
type Record struct {
	Engine     string  `json:"engine"`
	GPU        string  `json:"gpu"`
	Op         string  `json:"op"`
	B          int     `json:"b,omitempty"`
	M          int     `json:"m,omitempty"`
	K          int     `json:"k,omitempty"`
	N          int     `json:"n,omitempty"`
	DType      string  `json:"dtype,omitempty"`
	ObservedMs float64 `json:"observed_ms"`
}

// NewRecord serializes an observed key.
func NewRecord(engine string, k kernels.Kernel, gpuName string, observedMs float64) Record {
	r := Record{
		Engine: engine, GPU: gpuName,
		Op: k.Op.String(), B: k.B, M: k.M, K: k.K, N: k.N,
		ObservedMs: observedMs,
	}
	if k.DType != kernels.FP32 {
		r.DType = k.DType.String()
	}
	return r
}

// Kernel reconstructs the kernel a record describes.
func (r Record) Kernel() (kernels.Kernel, error) {
	op, ok := kernels.OpByName(r.Op)
	if !ok {
		return kernels.Kernel{}, fmt.Errorf("unknown op %q", r.Op)
	}
	k := kernels.Kernel{Op: op, B: r.B, M: r.M, K: r.K, N: r.N}
	switch r.DType {
	case "", "fp32":
	case "fp16":
		k.DType = kernels.FP16
	default:
		return kernels.Kernel{}, fmt.Errorf("unknown dtype %q", r.DType)
	}
	return k, nil
}

// DefaultStoreCap bounds a store that was opened without an explicit cap.
const DefaultStoreCap = 8192

// Store is a bounded, crash-safe observation log: an append-only JSONL
// file (internal/jsonl) holding the newest cap observations. Every append
// is flushed through to the file (an observation accepted is an
// observation that survives a kill), the oldest records are evicted past
// the cap, and the file is compacted — atomically — once the on-disk log
// grows to twice the cap, so disk usage is bounded even though appends
// never rewrite the file. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	path      string
	cap       int
	log       *jsonl.Log
	recs      []Record
	fileLines int    // lines currently in the file, evicted records included
	skipped   int    // corrupt/unparseable lines dropped at open
	evicted   uint64 // records dropped past the cap
	compacts  uint64 // atomic rewrites
	err       error  // first write error; appends stop permanently
}

// OpenStore opens (creating if absent) the observation store at path,
// keeping at most capacity records (DefaultStoreCap when <= 0). Damaged
// lines in the file are skipped and counted, never fatal; if the file
// holds more than capacity valid records only the newest survive, and the
// pruned file is written back immediately so evicted records cannot
// resurrect after a kill.
func OpenStore(path string, capacity int) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	s := &Store{path: path, cap: capacity}
	if f, err := os.Open(path); err == nil {
		s.skipped = jsonl.Scan(f, func(r Record) bool {
			if r.Op == "" || r.GPU == "" || r.Engine == "" || !(r.ObservedMs > 0) {
				return false
			}
			s.recs = append(s.recs, r)
			return true
		})
		f.Close()
		s.fileLines = len(s.recs) + s.skipped
	}
	if over := len(s.recs) - capacity; over > 0 {
		s.recs = s.recs[over:]
		s.evicted += uint64(over)
	}
	if s.evicted > 0 || s.skipped > 0 {
		// Rewrite now, not lazily: a kill before the next compaction must
		// not bring evicted or corrupt lines back.
		if err := jsonl.Replace(path, s.recs); err != nil {
			return nil, fmt.Errorf("observe: prune store: %w", err)
		}
		s.fileLines = len(s.recs)
		s.compacts++
	}
	log, err := jsonl.Open(path)
	if err != nil {
		return nil, fmt.Errorf("observe: open store: %w", err)
	}
	s.log = log
	return s, nil
}

// Append persists one observation. The line is flushed through to the
// file before Append returns; past the cap the oldest in-memory record is
// evicted, and once the file holds twice the cap it is compacted down to
// the live records.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.err = s.log.Append(r); s.err == nil {
		s.err = s.log.Flush()
	}
	if s.err != nil {
		return s.err
	}
	s.fileLines++
	s.recs = append(s.recs, r)
	if len(s.recs) > s.cap {
		// Evict by reslicing: append reallocates (dropping the evicted
		// prefix) only when the tail runs out, so eviction is amortised
		// O(1) instead of a memmove of the whole store per observation.
		s.recs = s.recs[1:]
		s.evicted++
	}
	if s.fileLines >= 2*s.cap && s.fileLines > len(s.recs) {
		s.err = s.compactLocked()
	}
	return s.err
}

// compactLocked rewrites the file down to the live records: close the
// append handle, atomically replace the file (a crash leaves the old log
// or the new one, never a torn file), reopen for append. Callers hold
// s.mu.
func (s *Store) compactLocked() error {
	if err := s.log.Close(); err != nil {
		return fmt.Errorf("observe: compact store: %w", err)
	}
	if err := jsonl.Replace(s.path, s.recs); err != nil {
		return fmt.Errorf("observe: compact store: %w", err)
	}
	log, err := jsonl.Open(s.path)
	if err != nil {
		return fmt.Errorf("observe: compact store: %w", err)
	}
	s.log = log
	s.fileLines = len(s.recs)
	s.compacts++
	return nil
}

// Records returns a copy of the live records, oldest first.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// Stats reports the store's state for the drift report.
type StoreStats struct {
	Path        string `json:"path"`
	Records     int    `json:"records"`
	Cap         int    `json:"cap"`
	Skipped     int    `json:"skipped,omitempty"` // corrupt lines dropped at open
	Evicted     uint64 `json:"evicted,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
}

// Stats returns the store's current state.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Path: s.path, Records: len(s.recs), Cap: s.cap,
		Skipped: s.skipped, Evicted: s.evicted, Compactions: s.compacts,
	}
}

// Close flushes and closes the store file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}
