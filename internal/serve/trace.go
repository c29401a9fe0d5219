package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/jsonl"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

// TraceEntry is one line of a workload trace: a (kernel, GPU, engine) key
// the service served, serialized with the operator's canonical name so a
// trace written by one build replays in another. Fused kernels carry their
// fusion accounting so replay rebuilds the exact cache key.
type TraceEntry struct {
	Engine string `json:"engine"`
	GPU    string `json:"gpu"`
	Op     string `json:"op"`
	B      int    `json:"b,omitempty"`
	M      int    `json:"m,omitempty"`
	K      int    `json:"k,omitempty"`
	N      int    `json:"n,omitempty"`
	DType  string `json:"dtype,omitempty"`

	// Idle counts completed replays (process runs) since the key was last
	// requested — maintained only by compacting recorders, which age it on
	// close and drop entries whose idle count reaches the bound.
	Idle int `json:"idle,omitempty"`

	Fused      bool     `json:"fused,omitempty"`
	FusedFLOPs float64  `json:"fused_flops,omitempty"`
	FusedBytes float64  `json:"fused_bytes,omitempty"`
	FusedOps   []string `json:"fused_ops,omitempty"`

	ConvInputElems float64 `json:"conv_input_elems,omitempty"`
}

// entryFromKernel serializes a served key.
func entryFromKernel(engine string, k kernels.Kernel, g gpu.Spec) TraceEntry {
	e := TraceEntry{
		Engine: engine, GPU: g.Name,
		Op: k.Op.String(), B: k.B, M: k.M, K: k.K, N: k.N,
		ConvInputElems: k.ConvInputElems,
	}
	if k.DType != kernels.FP32 {
		e.DType = k.DType.String()
	}
	if k.Fused {
		e.Fused = true
		e.FusedFLOPs = k.FusedFLOPs
		e.FusedBytes = k.FusedBytes
		for _, op := range k.FusedOps {
			e.FusedOps = append(e.FusedOps, op.String())
		}
	}
	return e
}

// Kernel reconstructs the kernel a trace entry describes.
func (e TraceEntry) Kernel() (kernels.Kernel, error) {
	op, ok := kernels.OpByName(e.Op)
	if !ok {
		return kernels.Kernel{}, fmt.Errorf("unknown op %q", e.Op)
	}
	k := kernels.Kernel{Op: op, B: e.B, M: e.M, K: e.K, N: e.N, ConvInputElems: e.ConvInputElems}
	switch e.DType {
	case "", "fp32":
	case "fp16":
		k.DType = kernels.FP16
	default:
		return kernels.Kernel{}, fmt.Errorf("unknown dtype %q", e.DType)
	}
	if e.Fused {
		k.Fused = true
		k.FusedFLOPs = e.FusedFLOPs
		k.FusedBytes = e.FusedBytes
		for _, name := range e.FusedOps {
			fop, ok := kernels.OpByName(name)
			if !ok {
				return kernels.Kernel{}, fmt.Errorf("unknown fused op %q", name)
			}
			k.FusedOps = append(k.FusedOps, fop)
		}
	}
	return k, nil
}

// maxTraceKeys bounds the recorder's in-memory dedup set. Real workloads
// have a few thousand unique (kernel, GPU, engine) keys; once the set is
// full the working profile is captured and further novel keys are not
// recorded.
const maxTraceKeys = 1 << 16

// traceKey is what the recorder deduplicates on and the compactor matches
// requests by: the engine and the serving cache's identity of the kernel on
// the GPU, so kernels that share a Label but not their fusion or
// convolution fields are two entries.
type traceKey struct {
	engine string
	tile.CacheKey
}

func newTraceKey(engine string, k kernels.Kernel, gpuName string) traceKey {
	return traceKey{engine, tile.CacheKey{Kernel: k.Key(), GPU: gpuName}}
}

// compactEntry is one loaded trace entry a compacting recorder tracks:
// the parsed entry plus its dedup key, so end-of-run aging can match it
// against the keys requested this run.
type compactEntry struct {
	key traceKey
	e   TraceEntry
}

// TraceRecorder appends the unique keys a service serves to a JSONL
// workload trace — the persistent profile a later process replays to warm
// its caches (see Service.WarmFromTrace). Records happen on the cache-fill
// path (first successful serve of a key), so steady-state cache hits cost
// nothing; an in-memory set deduplicates refills after LRU eviction. Safe
// for concurrent use.
//
// A compacting recorder (NewTraceRecorderCompact) additionally ages the
// trace: keys not requested within the last compactAfter replays are
// dropped, so a trace that has accumulated keys from workloads nobody
// runs anymore stops re-warming them forever. Aging happens at the run
// boundaries — entries past the idle bound are pruned when the recorder
// opens, every key requested during the run is tracked (cache hits
// included, via Touch), and Close rewrites the trace with idle counts
// aged one replay.
type TraceRecorder struct {
	mu   sync.Mutex
	path string
	log  *jsonl.Log // buffered appends; its first write error stops recording permanently
	seen map[traceKey]struct{}

	// loaded and fresh retain the recorder's entries in memory (bounded by
	// the same maxTraceKeys cap as the dedup set): the carried-over file
	// entries and the keys newly recorded this run. Compaction ages them;
	// Entries serves them to joining cluster members.
	loaded []compactEntry
	fresh  []TraceEntry

	// Compaction state, populated only when compactAfter > 0.
	compactAfter int
	agedOut      int                   // entries pruned at open (idle >= bound, duplicate, unreplayable)
	touched      map[traceKey]struct{} // keys requested this run
}

// NewTraceRecorder opens (creating or appending to) the trace at path.
// Keys already present in the file seed the dedup set, so the
// record-into-the-same-file-you-warmed-from deployment loop does not grow
// the trace with duplicates across restarts (an LRU eviction + refill
// would otherwise re-append every key each run).
func NewTraceRecorder(path string) (*TraceRecorder, error) {
	return newTraceRecorder(path, 0)
}

// NewTraceRecorderCompact is NewTraceRecorder with trace compaction: keys
// not requested within the last compactAfter replays (process runs) age
// out of the trace. Entries already past the bound — or unreplayable in
// this build — are pruned immediately and the pruned file written back, so
// the compaction survives even a run that never closes cleanly.
func NewTraceRecorderCompact(path string, compactAfter int) (*TraceRecorder, error) {
	if compactAfter <= 0 {
		return nil, fmt.Errorf("serve: trace compaction bound must be positive, got %d", compactAfter)
	}
	return newTraceRecorder(path, compactAfter)
}

func newTraceRecorder(path string, compactAfter int) (*TraceRecorder, error) {
	r := &TraceRecorder{path: path, compactAfter: compactAfter, seen: map[traceKey]struct{}{}}
	if compactAfter > 0 {
		r.touched = map[traceKey]struct{}{}
	}
	if entries, _, err := ReadTrace(path); err == nil {
		for _, e := range entries {
			k, kerr := e.Kernel()
			if kerr != nil {
				if compactAfter > 0 {
					r.agedOut++ // unreplayable in this build: compact away
				}
				continue
			}
			key := newTraceKey(e.Engine, k, e.GPU)
			if _, dup := r.seen[key]; dup {
				if compactAfter > 0 {
					r.agedOut++ // duplicate from a pre-dedup writer
				}
				continue
			}
			if compactAfter > 0 && e.Idle >= compactAfter {
				r.agedOut++
				continue
			}
			r.seen[key] = struct{}{}
			r.loaded = append(r.loaded, compactEntry{key: key, e: e})
		}
	}
	if r.agedOut > 0 {
		// Write the pruned file back now, not at Close: the aged keys must
		// not resurrect if this run is killed before a clean shutdown.
		if err := jsonl.Replace(path, r.Entries()); err != nil {
			return nil, fmt.Errorf("serve: compact trace: %w", err)
		}
	}
	log, err := jsonl.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: open trace: %w", err)
	}
	r.log = log
	return r, nil
}

// Record appends the (engine, kernel, GPU) key if it has not been recorded
// by this recorder before. For compacting recorders it also marks the key
// requested — a refill after LRU eviction is a request like any other.
func (r *TraceRecorder) Record(engine string, k kernels.Kernel, g gpu.Spec) {
	r.record(engine, k, g, true)
}

// record implements Record. touch=false records without marking the key
// requested: the cache fills of a warmup replay must stay invisible to
// compaction (a replay re-requests the whole trace by construction —
// counting it would keep every key alive forever), while still appending
// novel keys for the trace-rotation deployment loop.
func (r *TraceRecorder) record(engine string, k kernels.Kernel, g gpu.Spec, touch bool) {
	key := newTraceKey(engine, k, g.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if touch && r.compactAfter > 0 {
		r.touchLocked(key)
	}
	if _, ok := r.seen[key]; ok {
		return
	}
	if len(r.seen) >= maxTraceKeys {
		return
	}
	entry := entryFromKernel(engine, k, g)
	if r.log.Append(entry) != nil {
		return
	}
	r.seen[key] = struct{}{}
	r.fresh = append(r.fresh, entry)
}

// Entries returns every entry this recorder knows: what it loaded from
// the trace file plus what it recorded this run. The copy is what
// Service.TraceJSONL serializes for joining cluster members.
func (r *TraceRecorder) Entries() []TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEntry, 0, len(r.loaded)+len(r.fresh))
	for _, ce := range r.loaded {
		out = append(out, ce.e)
	}
	out = append(out, r.fresh...)
	return out
}

// Touch marks the (engine, kernel, GPU) key as requested this run without
// recording it. The serving layer calls it on cache hits so compaction
// sees the full request profile, not just the cache-fill slice; a
// non-compacting recorder ignores it without taking the lock.
func (r *TraceRecorder) Touch(engine string, k kernels.Kernel, g gpu.Spec) {
	if r.compactAfter <= 0 {
		return
	}
	key := newTraceKey(engine, k, g.Name)
	r.mu.Lock()
	r.touchLocked(key)
	r.mu.Unlock()
}

// touchLocked inserts key into the touched set, bounded by the same
// maxTraceKeys cap as the dedup set — kernel shapes come from client
// request bodies, so the set of unique keys is workload-controlled and a
// long-lived process must not accumulate it without bound. Past the cap,
// novel keys go unmarked; the worst case is a kept trace entry aging one
// replay early, against unbounded heap growth. Callers hold r.mu.
func (r *TraceRecorder) touchLocked(key traceKey) {
	if _, ok := r.touched[key]; ok {
		return
	}
	if len(r.touched) >= maxTraceKeys {
		return
	}
	r.touched[key] = struct{}{}
}

// Close flushes and closes the trace file. A compacting recorder then
// rewrites it with one replay of aging applied: keys requested this run
// reset to idle 0, untouched keys age one replay, and keys reaching the
// idle bound are dropped.
func (r *TraceRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.log.Close()
	if r.compactAfter > 0 {
		if cerr := r.compactLocked(); err == nil {
			err = cerr
		}
	}
	return err
}

// compactLocked rewrites the trace with this run's aging folded in.
// Callers must hold r.mu and have closed the append handle.
func (r *TraceRecorder) compactLocked() error {
	out := make([]TraceEntry, 0, len(r.loaded)+len(r.fresh))
	for _, ce := range r.loaded {
		e := ce.e
		if _, ok := r.touched[ce.key]; ok {
			e.Idle = 0
		} else {
			e.Idle++
			if e.Idle >= r.compactAfter {
				continue
			}
		}
		out = append(out, e)
	}
	out = append(out, r.fresh...) // recorded this run: idle 0 by construction
	if err := jsonl.Replace(r.path, out); err != nil {
		return fmt.Errorf("serve: compact trace: %w", err)
	}
	return nil
}

// TraceCompaction reports the compaction state of the attached trace
// recorder, exposed in the "trace_compaction" section of /v2/stats.
type TraceCompaction struct {
	// MaxIdleReplays is the bound K: keys not requested within the last K
	// replays (process runs) are dropped from the trace.
	MaxIdleReplays int `json:"max_idle_replays"`
	// Loaded counts the entries carried over from the trace at startup.
	Loaded int `json:"loaded"`
	// AgedOut counts the entries pruned at startup (idle at or past the
	// bound, duplicates, or unreplayable in this build).
	AgedOut int `json:"aged_out"`
	// Touched counts the unique keys requested so far this run — the set
	// that will reset to idle 0 when the trace is rewritten on shutdown.
	Touched int `json:"touched"`
}

// Compaction returns the recorder's compaction state, or nil for a
// non-compacting recorder.
func (r *TraceRecorder) Compaction() *TraceCompaction {
	if r.compactAfter <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &TraceCompaction{
		MaxIdleReplays: r.compactAfter,
		Loaded:         len(r.loaded),
		AgedOut:        r.agedOut,
		Touched:        len(r.touched),
	}
}

// TraceCompaction returns the attached recorder's compaction state, or
// nil when no compacting recorder is attached.
func (s *Service) TraceCompaction() *TraceCompaction {
	if r := s.recorder.Load(); r != nil {
		return r.Compaction()
	}
	return nil
}

// touchTrace is the serving-path hook for cache hits: compaction must see
// every requested key, not just the cache fills recordTrace covers. Hits
// produced by a warmup replay (duplicate keys within the trace) do not
// count as requests.
func (s *Service) touchTrace(engine string, k kernels.Kernel, g gpu.Spec) {
	if s.warming.Load() {
		return
	}
	if r := s.recorder.Load(); r != nil {
		r.Touch(engine, k, g)
	}
}

// SetTraceRecorder starts (non-nil) or stops (nil) recording served keys
// to r. The caller owns r's lifecycle: flush/close it after the service
// stops serving.
func (s *Service) SetTraceRecorder(r *TraceRecorder) { s.recorder.Store(r) }

// recordTrace is the serving-path hook: called after a key is served and
// cached for the first time. Fills made by a warmup replay are recorded
// (trace rotation depends on it) but not marked requested — only live
// traffic keeps a key alive under compaction.
func (s *Service) recordTrace(engine string, k kernels.Kernel, g gpu.Spec) {
	if r := s.recorder.Load(); r != nil {
		r.record(engine, k, g, !s.warming.Load())
	}
}

// ReadTrace parses the JSONL trace at path. Truncated, corrupt,
// unparseable, or absurdly long lines are skipped and counted — damage
// anywhere in the file (a torn append, binary corruption mid-file) must
// not void the valid profile before or after it.
func ReadTrace(path string) (entries []TraceEntry, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: open trace: %w", err)
	}
	defer f.Close()
	entries, skipped = readTraceEntries(f)
	return entries, skipped, nil
}

// readTraceEntries parses JSONL trace data from r with ReadTrace's
// damage tolerance. It is the shared core of file replay (ReadTrace) and
// peer-trace replay (Service.WarmFromTraceData).
func readTraceEntries(r io.Reader) (entries []TraceEntry, skipped int) {
	skipped = jsonl.Scan(r, func(e TraceEntry) bool {
		if e.Op == "" || e.GPU == "" {
			return false
		}
		entries = append(entries, e)
		return true
	})
	return entries, skipped
}

// WarmupStats reports one trace replay, exposed in the "warmup" section
// of /v2/stats.
type WarmupStats struct {
	Source     string  `json:"source"`  // trace path
	Entries    int     `json:"entries"` // lines that parsed
	Warmed     int     `json:"warmed"`  // forecasts primed into the caches
	Skipped    int     `json:"skipped"` // corrupt/unparseable lines
	Failed     int     `json:"failed"`  // entries that could not be primed (unknown engine/GPU/op, backend error)
	DurationMs float64 `json:"duration_ms"`
}

// Warmup returns the report of the last WarmFromTrace replay, or nil when
// none has run.
func (s *Service) Warmup() *WarmupStats { return s.warmup.Load() }

// WarmFromTrace replays the workload trace at path through the serving
// path, priming the cache before the process starts accepting traffic:
// each (engine, GPU) group of entries is replayed concurrently as one
// batched prediction, so warmup parallelizes across groups and amortizes
// native-batch engines exactly like live traffic.
//
// Damaged lines and entries naming unknown engines, GPUs, or operators
// are counted and skipped — a stale or truncated trace degrades warmup,
// never aborts it. The only errors returned are an unreadable trace file
// and a cancelled context. Warmup traffic moves the ordinary serving
// counters (requests, misses); the returned report, also exposed on
// /v2/stats, is the separate accounting.
func (s *Service) WarmFromTrace(ctx context.Context, path string) (WarmupStats, error) {
	start := time.Now()
	ws := WarmupStats{Source: path}
	entries, skipped, err := ReadTrace(path)
	ws.Skipped = skipped
	if err != nil {
		return ws, err
	}
	ws.Entries = len(entries)
	s.warmEntries(ctx, entries, &ws)
	ws.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)
	s.warmup.Store(&ws)
	return ws, ctx.Err()
}

// WarmFromTraceData replays JSONL trace data (a peer's recorded trace,
// fetched over the cluster's /v2/cluster/trace) through the serving path,
// priming only the entries whose (engine, GPU) key owns reports true —
// the keys this process is about to serve. It returns how many
// forecasts were primed. Damage tolerance matches WarmFromTrace: corrupt
// lines and unknown engines/GPUs/ops degrade the warmup, never abort it.
func (s *Service) WarmFromTraceData(ctx context.Context, data []byte, owns func(engine, gpuName string) bool) (int, error) {
	entries, _ := readTraceEntries(bytes.NewReader(data))
	if owns != nil {
		kept := entries[:0]
		for _, e := range entries {
			g, err := gpu.Lookup(e.GPU)
			if err != nil {
				continue
			}
			if owns(e.Engine, g.Name) {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	var ws WarmupStats
	s.warmEntries(ctx, entries, &ws)
	return ws.Warmed, ctx.Err()
}

// warmEntries replays parsed trace entries, accumulating Warmed/Failed
// into ws. The warming flag keeps the replay's cache fills out of trace
// compaction's touch accounting (a replay re-requests the whole trace by
// construction).
func (s *Service) warmEntries(ctx context.Context, entries []TraceEntry, ws *WarmupStats) {
	s.warming.Store(true)
	defer s.warming.Store(false)

	// Group by (engine, GPU): each group is one batched replay.
	type group struct {
		engine string
		g      gpu.Spec
		ks     []kernels.Kernel
	}
	groups := map[string]*group{}
	var order []string
	for _, e := range entries {
		g, lookupErr := gpu.Lookup(e.GPU)
		if lookupErr != nil {
			ws.Failed++
			continue
		}
		k, kernErr := e.Kernel()
		if kernErr != nil {
			ws.Failed++
			continue
		}
		gk := e.Engine + "|" + g.Name
		grp, ok := groups[gk]
		if !ok {
			grp = &group{engine: e.Engine, g: g}
			groups[gk] = grp
			order = append(order, gk)
		}
		grp.ks = append(grp.ks, k)
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		warmed int
		failed int
	)
	for _, gk := range order {
		grp := groups[gk]
		es, engErr := s.engine(grp.engine)
		if engErr != nil {
			mu.Lock()
			failed += len(grp.ks)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(grp *group, es *engineState) {
			defer wg.Done()
			outs, batchErr := s.predictMany(ctx, es, grp.ks, grp.g, nil)
			ok, bad := 0, 0
			if batchErr != nil { // e.g. saturation: nothing primed
				bad = len(grp.ks)
			} else {
				for _, out := range outs {
					if out.Err != nil {
						bad++
					} else {
						ok++
					}
				}
			}
			mu.Lock()
			warmed += ok
			failed += bad
			mu.Unlock()
		}(grp, es)
	}
	wg.Wait()
	ws.Warmed += warmed
	ws.Failed += failed
}

// TraceJSONL serializes the attached recorder's entries as JSONL — what
// the cluster layer serves on /v2/cluster/trace for joining members. Nil
// without a recorder.
func (s *Service) TraceJSONL() []byte {
	r := s.recorder.Load()
	if r == nil {
		return nil
	}
	var buf bytes.Buffer
	for _, e := range r.Entries() {
		jsonl.Encode(&buf, e) // an entry that cannot be encoded is left out
	}
	return buf.Bytes()
}
