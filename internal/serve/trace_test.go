package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

func TestTraceEntryKernelRoundTrip(t *testing.T) {
	g := gpu.MustLookup("H100")
	cases := []kernels.Kernel{
		kernels.NewBMM(8, 512, 512, 512),
		kernels.NewLinear(64, 256, 256).WithDType(kernels.FP16),
		kernels.NewSoftmax(4096, 512),
		{Op: kernels.OpLinear, M: 32, K: 64, N: 64, Fused: true,
			FusedFLOPs: 1e6, FusedBytes: 2e4, FusedOps: []kernels.Op{kernels.OpLinear, kernels.OpEWGELU}},
	}
	for _, k := range cases {
		e := entryFromKernel("neusight", k, g)
		got, err := e.Kernel()
		if err != nil {
			t.Fatalf("Kernel() on %s: %v", k.Label(), err)
		}
		if !reflect.DeepEqual(got, k) {
			t.Errorf("round trip of %s: got %+v, want %+v", k.Label(), got, k)
		}
		if e.Engine != "neusight" || e.GPU != "H100" {
			t.Errorf("entry metadata = %+v", e)
		}
	}
}

// TestWarmupFirstRequestIsCacheHit is the acceptance path: record a trace
// from one service, restart into a fresh one, warm it from the trace, and
// require the first trace-covered request to be served from cache — no
// backend call, hit counter moves.
func TestWarmupFirstRequestIsCacheHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workload.jsonl")
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{
		kernels.NewBMM(4, 128, 128, 128),
		kernels.NewLinear(64, 256, 256),
		kernels.NewSoftmax(1024, 128).WithDType(kernels.FP16),
	}

	// First process: serve traffic with recording on.
	var callsA atomic.Int64
	regA := predict.NewRegistry()
	regA.MustRegister(countingEngine("alpha", 1, &callsA))
	svcA := NewMulti(regA, "alpha", Config{CacheSize: 64})
	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	svcA.SetTraceRecorder(rec)
	for _, k := range ks {
		if _, err := predictKernel(svcA, k, g); err != nil {
			t.Fatalf("PredictKernel: %v", err)
		}
		// Repeats are cache hits and must not duplicate trace entries.
		predictKernel(svcA, k, g)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	entries, skipped, err := ReadTrace(path)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace = (%d entries, %d skipped, %v)", len(entries), skipped, err)
	}
	if len(entries) != len(ks) {
		t.Fatalf("trace has %d entries, want %d (one per unique key)", len(entries), len(ks))
	}

	// Second process: fresh service, warm from the trace — warmup must
	// prime its cache the same way.
	var callsB atomic.Int64
	regB := predict.NewRegistry()
	regB.MustRegister(countingEngine("alpha", 1, &callsB))
	svcB := NewMulti(regB, "alpha", Config{CacheSize: 64})
	ws, err := svcB.WarmFromTrace(context.Background(), path)
	if err != nil {
		t.Fatalf("WarmFromTrace: %v", err)
	}
	if ws.Entries != len(ks) || ws.Warmed != len(ks) || ws.Skipped != 0 || ws.Failed != 0 {
		t.Fatalf("warmup stats = %+v, want %d entries all warmed", ws, len(ks))
	}
	if got := callsB.Load(); got != int64(len(ks)) {
		t.Fatalf("warmup backend calls = %d, want %d", got, len(ks))
	}
	if svcB.Warmup() == nil {
		t.Fatal("Warmup() report not stored")
	}

	// The first live request for every trace-covered key is a cache hit.
	hitsBefore := svcB.Stats().CacheHits
	for _, k := range ks {
		if _, err := predictKernel(svcB, k, g); err != nil {
			t.Fatalf("post-warmup PredictKernel: %v", err)
		}
	}
	if got := callsB.Load(); got != int64(len(ks)) {
		t.Errorf("backend calls after live traffic = %d, want %d (all requests served from warm cache)", got, len(ks))
	}
	if hits := svcB.Stats().CacheHits - hitsBefore; hits != uint64(len(ks)) {
		t.Errorf("cache hits after warmup = %d, want %d", hits, len(ks))
	}
}

func TestWarmupSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "damaged.jsonl")
	lines := []string{
		`{"engine":"alpha","gpu":"V100","op":"bmm","b":2,"m":64,"k":64,"n":64}`,
		`{"engine":"alpha","gpu":"V100","op":"linear","m":32,"k":`, // truncated mid-append
		`not json at all`,
		`{"engine":"alpha","gpu":"NoSuchGPU","op":"bmm","b":2,"m":64,"k":64,"n":64}`, // unknown GPU
		`{"engine":"alpha","gpu":"V100","op":"warpdrive","b":2,"m":64}`,              // unknown op
		`{"engine":"ghost","gpu":"V100","op":"bmm","b":4,"m":32,"k":32,"n":32}`,      // unknown engine
		``, // blank line
		`{"engine":"alpha","gpu":"V100","op":"softmax","b":1024,"m":128}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	ws, err := svc.WarmFromTrace(context.Background(), path)
	if err != nil {
		t.Fatalf("WarmFromTrace must not abort on damaged lines: %v", err)
	}
	// 2 corrupt lines skipped at parse; unknown GPU/op/engine fail at
	// replay; the 2 good alpha entries warm.
	if ws.Skipped != 2 {
		t.Errorf("skipped = %d, want 2", ws.Skipped)
	}
	if ws.Failed != 3 {
		t.Errorf("failed = %d, want 3 (unknown gpu, op, engine)", ws.Failed)
	}
	if ws.Warmed != 2 {
		t.Errorf("warmed = %d, want 2", ws.Warmed)
	}
	if st := svc.Stats(); st.CacheLen != 2 {
		t.Errorf("cache len after warmup = %d, want 2", st.CacheLen)
	}
}

// TestTraceOnSharedLog proves the trace is wired to the shared log
// (internal/jsonl, whose own suite crosses every fault with every
// operation): damage between two valid entries costs the skips the log
// counts and never the entries around it — on file replay, on peer-trace
// replay, and through a recorder reopening the file — and a recorder
// discards the temporary file a crashed compaction left behind.
func TestTraceOnSharedLog(t *testing.T) {
	const (
		first  = `{"engine":"alpha","gpu":"V100","op":"bmm","b":2,"m":64,"k":64,"n":64}` + "\n"
		second = `{"engine":"alpha","gpu":"V100","op":"softmax","b":1024,"m":128}` + "\n"
	)
	cases := []struct {
		name, damage string
		skipped      int
	}{
		{"overlong line", strings.Repeat("x", 100<<10) + "\n", 1},
		{"binary garbage", "\x00\xff\xfe not json\n", 1},
		{"truncated entry", `{"engine":"alpha","gpu":"V100","op":"li` + "\n", 1},
		{"entry without op or gpu", `{"engine":"alpha","gpu":"V100"}` + "\n" + `{"engine":"alpha","op":"bmm"}` + "\n", 2},
		{"blank lines", "\n\r\n", 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			data := []byte(first + c.damage + second)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			stale := path + ".compact.tmp"
			if err := os.WriteFile(stale, []byte(first[:20]), 0o644); err != nil {
				t.Fatal(err)
			}

			entries, skipped, err := ReadTrace(path)
			if err != nil || len(entries) != 2 || skipped != c.skipped {
				t.Errorf("ReadTrace = (%d entries, %d skipped, %v), want 2 entries, %d skipped", len(entries), skipped, err, c.skipped)
			}

			reg := predict.NewRegistry()
			reg.MustRegister(constEngine("alpha", 1))
			svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
			if warmed, err := svc.WarmFromTraceData(context.Background(), data, nil); err != nil || warmed != 2 {
				t.Errorf("WarmFromTraceData = (%d warmed, %v), want 2", warmed, err)
			}

			rec, err := NewTraceRecorder(path)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if got := len(rec.Entries()); got != 2 {
				t.Errorf("recorder loaded %d entries, want 2", got)
			}
			if _, err := os.Stat(stale); !os.IsNotExist(err) {
				t.Errorf("leftover %s not discarded at open (stat err %v)", stale, err)
			}
		})
	}
}

func TestWarmFromTraceMissingFile(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	if _, err := svc.WarmFromTrace(context.Background(), filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("warmup from a missing trace must error (the operator asked for it)")
	}
}

func TestTraceRecorderDedupsAcrossBatchAndSingle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dedup.jsonl")
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetTraceRecorder(rec)
	g := gpu.MustLookup("V100")
	k1 := kernels.NewBMM(2, 64, 64, 64)
	k2 := kernels.NewLinear(8, 16, 16)

	predictKernel(svc, k1, g)
	predictBatch(svc, []kernels.Kernel{k1, k2, k2}, g) // k1 already recorded, k2 once
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := ReadTrace(path)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace = (%v, %d skipped)", err, skipped)
	}
	if len(entries) != 2 {
		t.Errorf("trace entries = %d, want 2 unique keys", len(entries))
	}
}

// TestTraceRecorderSeedsFromExistingFile pins the restart loop: reopening
// a recorder on an existing trace must not re-append keys the file
// already holds, even after an eviction/refill would re-trigger Record.
func TestTraceRecorderSeedsFromExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seed.jsonl")
	g := gpu.MustLookup("V100")
	k1 := kernels.NewBMM(2, 64, 64, 64)
	k2 := kernels.NewLinear(8, 16, 16)

	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record("alpha", k1, g)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec2.Record("alpha", k1, g) // already in the file: must not duplicate
	rec2.Record("alpha", k2, g) // novel: must append
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}

	entries, skipped, err := ReadTrace(path)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace = (%v, %d skipped)", err, skipped)
	}
	if len(entries) != 2 {
		t.Errorf("trace entries after reopen = %d, want 2 (no duplicate of k1)", len(entries))
	}
}

// TestTraceCompactionAgesOutIdleKeys walks the multi-run lifecycle: a key
// requested every run stays forever; a key nobody requests ages one
// replay per run and is dropped when it reaches the bound.
func TestTraceCompactionAgesOutIdleKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.jsonl")
	g := gpu.MustLookup("V100")
	k1 := kernels.NewBMM(2, 64, 64, 64)
	k2 := kernels.NewLinear(8, 16, 16)
	k3 := kernels.NewSoftmax(1024, 128)

	// Run 1: all three keys served.
	rec, err := NewTraceRecorderCompact(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record("alpha", k1, g)
	rec.Record("alpha", k2, g)
	rec.Record("alpha", k3, g)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Runs 2 and 3: only k1 is requested. k2/k3 age to idle 1, then reach
	// the bound of 2 and drop.
	for run := 2; run <= 3; run++ {
		rec, err = NewTraceRecorderCompact(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tc := rec.Compaction(); tc.Loaded != 3 && run == 2 {
			t.Fatalf("run %d loaded %d entries, want 3", run, tc.Loaded)
		}
		rec.Touch("alpha", k1, g)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	entries, skipped, err := ReadTrace(path)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace = (%v, %d skipped)", err, skipped)
	}
	if len(entries) != 1 {
		t.Fatalf("entries after aging = %d, want only the requested key", len(entries))
	}
	if k, _ := entries[0].Kernel(); k.Label() != k1.Label() {
		t.Errorf("surviving key = %s, want %s", k.Label(), k1.Label())
	}
	if entries[0].Idle != 0 {
		t.Errorf("surviving key idle = %d, want 0 (requested last run)", entries[0].Idle)
	}
}

// TestTraceCompactionPrunesAtOpen: entries already past the idle bound
// are removed the moment the recorder opens — and the pruned file is
// written back immediately, so a crashy run cannot resurrect them.
func TestTraceCompactionPrunesAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.jsonl")
	lines := []string{
		`{"engine":"alpha","gpu":"V100","op":"bmm","b":2,"m":64,"k":64,"n":64}`,
		`{"engine":"alpha","gpu":"V100","op":"softmax","b":1024,"m":128,"idle":5}`,
		`{"engine":"alpha","gpu":"V100","op":"warpdrive","b":2,"m":64}`, // unreplayable
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := NewTraceRecorderCompact(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc := rec.Compaction()
	if tc == nil || tc.Loaded != 1 || tc.AgedOut != 2 || tc.MaxIdleReplays != 2 {
		t.Fatalf("compaction stats = %+v, want 1 loaded, 2 aged out, bound 2", tc)
	}
	// Pruned before Close: the rewrite happened at open.
	entries, _, err := ReadTrace(path)
	if err != nil || len(entries) != 1 {
		t.Fatalf("trace after open = (%d entries, %v), want 1 — prune must be durable immediately", len(entries), err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCompactionServingIntegration runs the deployment loop with a
// live service: a warmup replay must NOT count as a request (else nothing
// would ever age), while a live cache hit must.
func TestTraceCompactionServingIntegration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serving.jsonl")
	g := gpu.MustLookup("V100")
	k1 := kernels.NewBMM(4, 128, 128, 128)
	k2 := kernels.NewLinear(64, 256, 256)

	// Run 1: both keys served live.
	reg1 := predict.NewRegistry()
	reg1.MustRegister(constEngine("alpha", 1))
	svc1 := NewMulti(reg1, "alpha", Config{CacheSize: 64})
	rec1, err := NewTraceRecorderCompact(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc1.SetTraceRecorder(rec1)
	predictKernel(svc1, k1, g)
	predictKernel(svc1, k2, g)
	if err := rec1.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: warm from the trace (fills both — no touch), then only k1
	// sees live traffic, served from the warm cache (the hit path must
	// touch it).
	reg2 := predict.NewRegistry()
	reg2.MustRegister(constEngine("alpha", 1))
	svc2 := NewMulti(reg2, "alpha", Config{CacheSize: 64})
	rec2, err := NewTraceRecorderCompact(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc2.SetTraceRecorder(rec2)
	if ws, err := svc2.WarmFromTrace(context.Background(), path); err != nil || ws.Warmed != 2 {
		t.Fatalf("warmup = (%+v, %v), want 2 warmed", ws, err)
	}
	if tc := svc2.TraceCompaction(); tc == nil || tc.Touched != 0 {
		t.Fatalf("trace compaction after warmup = %+v, want 0 touched (replay is not a request)", tc)
	}
	hitsBefore := svc2.Stats().CacheHits
	if _, err := predictKernel(svc2, k1, g); err != nil {
		t.Fatal(err)
	}
	if svc2.Stats().CacheHits != hitsBefore+1 {
		t.Fatal("live request should have been a warm cache hit")
	}
	if tc := svc2.TraceCompaction(); tc == nil || tc.Touched != 1 || tc.Loaded != 2 {
		t.Fatalf("trace compaction = %+v, want 1 touched of 2 loaded", tc)
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}

	// With the bound at 1 replay, the unrequested k2 is gone.
	entries, skipped, err := ReadTrace(path)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace = (%v, %d skipped)", err, skipped)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1 (k2 aged out)", len(entries))
	}
	if k, _ := entries[0].Kernel(); k.Label() != k1.Label() {
		t.Errorf("surviving key = %s, want %s", k.Label(), k1.Label())
	}
}

// TestTraceCompactionKeepsFreshKeys: keys newly recorded during a
// compacting run survive the close rewrite.
func TestTraceCompactionKeepsFreshKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.jsonl")
	g := gpu.MustLookup("V100")
	rec, err := NewTraceRecorderCompact(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record("alpha", kernels.NewBMM(2, 64, 64, 64), g)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := ReadTrace(path)
	if err != nil || len(entries) != 1 {
		t.Fatalf("trace = (%d entries, %v), want the fresh key kept", len(entries), err)
	}
	if rec.Compaction().MaxIdleReplays != 3 {
		t.Errorf("compaction bound = %d, want 3", rec.Compaction().MaxIdleReplays)
	}
}

// TestTraceCompactionOnStats pins the /v2/stats exposure: the section is
// absent without a compacting recorder and present with one.
func TestTraceCompactionOnStats(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	h := NewHandler(svc)

	stats := func() map[string]json.RawMessage {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/v2/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var m map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	if _, ok := stats()["trace_compaction"]; ok {
		t.Fatal("trace_compaction present without a compacting recorder")
	}
	rec, err := NewTraceRecorderCompact(filepath.Join(t.TempDir(), "stats.jsonl"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	svc.SetTraceRecorder(rec)
	predictKernel(svc, kernels.NewBMM(2, 64, 64, 64), gpu.MustLookup("V100"))
	raw, ok := stats()["trace_compaction"]
	if !ok {
		t.Fatal("trace_compaction missing from /v2/stats")
	}
	var tc TraceCompaction
	if err := json.Unmarshal(raw, &tc); err != nil {
		t.Fatal(err)
	}
	if tc.MaxIdleReplays != 4 || tc.Touched != 1 {
		t.Fatalf("trace_compaction = %+v, want bound 4, 1 touched", tc)
	}
}

func TestNewTraceRecorderCompactValidation(t *testing.T) {
	if _, err := NewTraceRecorderCompact(filepath.Join(t.TempDir(), "x.jsonl"), 0); err == nil {
		t.Fatal("bound 0 must be rejected")
	}
}

func TestTraceRecorderConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.jsonl")
	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.MustLookup("V100")
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				rec.Record("alpha", kernels.NewBMM(1+i%10, 32, 32, 32), g)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := ReadTrace(path)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace = (%v, %d skipped)", err, skipped)
	}
	if len(entries) != 10 {
		t.Errorf("trace entries = %d, want 10 unique keys", len(entries))
	}
}
