package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// constEngine builds a func engine answering every kernel with lat.
func constEngine(name string, lat float64) predict.Engine {
	return predict.NewFuncEngine(name, predict.SourceAnalytical,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) { return lat, nil })
}

// multiService builds a two-engine service: "alpha" (default, latency 1)
// and "beta" (latency 2).
func multiService(t *testing.T) *Service {
	t.Helper()
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	reg.MustRegister(constEngine("beta", 2))
	return NewMulti(reg, "alpha", Config{CacheSize: 64})
}

func TestMultiEngineRouting(t *testing.T) {
	svc := multiService(t)
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 64, 64, 64)
	ctx := context.Background()

	res, err := svc.PredictKernelEngine(ctx, "", k, g)
	if err != nil || res.Latency != 1 {
		t.Fatalf("default engine = (%+v, %v), want latency 1", res, err)
	}
	res, err = svc.PredictKernelEngine(ctx, "beta", k, g)
	if err != nil || res.Latency != 2 {
		t.Fatalf("beta engine = (%+v, %v), want latency 2", res, err)
	}
	if _, err := svc.PredictKernelEngine(ctx, "gamma", k, g); err == nil {
		t.Fatal("unknown engine must error")
	} else if !strings.Contains(err.Error(), "alpha") {
		t.Errorf("unknown-engine error should name the registered engines: %v", err)
	}

	// The same kernel hit both engines: two cache partitions, one entry
	// each — the engines must not share forecasts.
	es := svc.EngineStats()
	if len(es) != 2 {
		t.Fatalf("engine stats = %d entries, want 2", len(es))
	}
	for _, e := range es {
		if e.CacheLen != 1 || e.Requests != 1 || e.CacheMisses != 1 {
			t.Errorf("engine %s stats = %+v, want 1 request/miss/entry", e.Engine, e)
		}
	}
	if st := svc.Stats(); st.CacheLen != 2 || st.Requests != 2 {
		t.Errorf("aggregate stats = %+v, want cacheLen 2, requests 2", st)
	}

	// Per-engine caches serve their own partition.
	if res, err := svc.PredictKernelEngine(ctx, "beta", k, g); err != nil || res.Latency != 2 {
		t.Fatalf("cached beta = (%+v, %v)", res, err)
	}
	if hits, _ := func() (uint64, uint64) {
		for _, e := range svc.EngineStats() {
			if e.Engine == "beta" {
				return e.CacheHits, e.CacheMisses
			}
		}
		return 0, 0
	}(); hits != 1 {
		t.Errorf("beta cache hits = %d, want 1", hits)
	}
}

func TestPredictBatchEngineRouting(t *testing.T) {
	svc := multiService(t)
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{kernels.NewBMM(1, 32, 32, 32), kernels.NewSoftmax(16, 64)}
	outs, err := svc.PredictBatchEngine(context.Background(), "beta", ks, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil || out.Result.Latency != 2 {
			t.Errorf("item %d = %+v, want latency 2 from beta", i, out)
		}
	}
	if _, err := svc.PredictBatchEngine(context.Background(), "gamma", ks, g); err == nil {
		t.Fatal("unknown engine must error")
	}
}

// genEngine is a Generational stub: bumping gen simulates a retrain.
type genEngine struct {
	lat   float64
	calls atomic.Int64
	gen   atomic.Uint64
}

func (e *genEngine) Name() string { return "gen-stub" }

func (e *genEngine) PredictKernel(ctx context.Context, req predict.Request) (predict.Result, error) {
	e.calls.Add(1)
	return predict.Result{Latency: e.lat, Engine: "gen-stub", Source: predict.SourceAnalytical}, nil
}

func (e *genEngine) PredictKernels(ctx context.Context, reqs []predict.Request) []predict.Outcome {
	outs := make([]predict.Outcome, len(reqs))
	for i, req := range reqs {
		outs[i].Result, outs[i].Err = e.PredictKernel(ctx, req)
	}
	return outs
}

func (e *genEngine) Generation() uint64 { return e.gen.Load() }

// TestGenerationInvalidatesCache is the retrain-push satellite: a bumped
// engine generation makes cached forecasts unreachable without any manual
// invalidation.
func TestGenerationInvalidatesCache(t *testing.T) {
	eng := &genEngine{lat: 5}
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	svc := NewMulti(reg, "gen-stub", Config{CacheSize: 16})
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(2, 48, 48, 48)

	predictKernel(svc, k, g)
	predictKernel(svc, k, g)
	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 (second request cached)", got)
	}

	eng.gen.Add(1) // "retrain"
	if lat, err := predictKernel(svc, k, g); err != nil || lat != 5 {
		t.Fatalf("post-retrain predict = (%v, %v)", lat, err)
	}
	if got := eng.calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (generation bump must bypass the stale entry)", got)
	}
	// And the new generation is itself cached.
	predictKernel(svc, k, g)
	if got := eng.calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (new generation cached)", got)
	}
}

// TestGraphCancellationAbortsNotDegrades: a cancelled context must surface
// as a failed graph forecast, never as an HTTP-200 total quietly assembled
// from memory-bound fallbacks for the unevaluated kernels.
func TestGraphCancellationAbortsNotDegrades(t *testing.T) {
	svc := multiService(t)
	gr := graphOfTwo()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lat, _, err := svc.PredictGraphEngine(ctx, "", gr, gpu.MustLookup("V100"))
	if err == nil {
		t.Fatal("cancelled graph forecast must fail")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("error should be the cancellation, got %v", err)
	}
	if lat != 0 {
		t.Fatalf("aborted forecast returned a total (%v)", lat)
	}
}

func graphOfTwo() *graph.Graph {
	gr := graph.New("two")
	a := gr.Add(kernels.NewBMM(2, 64, 64, 64))
	gr.Add(kernels.NewSoftmax(64, 64), a)
	return gr
}

func newMultiServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(multiService(t)))
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPV2KernelEngineSelection(t *testing.T) {
	ts := newMultiServer(t)

	// Default engine.
	resp := postJSON(t, ts.URL+"/v2/predict/kernel", map[string]any{
		"op": "bmm", "b": 2, "m": 64, "k": 64, "n": 64, "gpu": "V100",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	kr := decode[KernelResponseV2](t, resp)
	if kr.LatencyMs != 1 || kr.Engine != "alpha" || kr.Source != predict.SourceAnalytical {
		t.Errorf("default v2 response = %+v, want latency 1 from alpha", kr)
	}

	// Explicit engine.
	resp = postJSON(t, ts.URL+"/v2/predict/kernel", map[string]any{
		"op": "bmm", "b": 2, "m": 64, "k": 64, "n": 64, "gpu": "V100", "engine": "beta",
	})
	kr = decode[KernelResponseV2](t, resp)
	if kr.LatencyMs != 2 || kr.Engine != "beta" {
		t.Errorf("beta v2 response = %+v, want latency 2 from beta", kr)
	}

	// Unknown engine: 400 naming the registered set, before any backend work.
	resp = postJSON(t, ts.URL+"/v2/predict/kernel", map[string]any{
		"op": "bmm", "b": 2, "m": 64, "k": 64, "n": 64, "gpu": "V100", "engine": "gamma",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine status = %d, want 400", resp.StatusCode)
	}
	e := decode[map[string]string](t, resp)
	if !strings.Contains(e["error"], "beta") {
		t.Errorf("error should list registered engines: %v", e)
	}
}

// TestHTTPV1RoutesAreGone: the /v1 aliases are deleted, so their routes
// answer 404 rather than a reply in an old shape.
func TestHTTPV1RoutesAreGone(t *testing.T) {
	ts := newMultiServer(t)
	for _, path := range []string{"/v1/predict/kernel", "/v1/predict/batch", "/v1/predict/graph", "/v1/stats"} {
		resp := postJSON(t, ts.URL+path, map[string]any{
			"op": "bmm", "b": 2, "m": 64, "k": 64, "n": 64, "gpu": "V100", "workload": "BERT-Large",
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPV2BatchEngineSelection(t *testing.T) {
	ts := newMultiServer(t)
	resp := postJSON(t, ts.URL+"/v2/predict/batch", map[string]any{
		"gpu": "V100", "engine": "beta",
		"kernels": []map[string]any{
			{"op": "softmax", "b": 8, "m": 128},
			{"op": "bmm", "b": 1, "m": 32, "k": 32, "n": 32},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	br := decode[BatchResponseV2](t, resp)
	if br.Engine != "beta" || br.Count != 2 {
		t.Fatalf("batch v2 response = %+v", br)
	}
	for i, item := range br.Items {
		if item.Error != "" || item.LatencyMs != 2 {
			t.Errorf("item %d = %+v, want latency 2", i, item)
		}
	}
}

func TestHTTPV2GraphReport(t *testing.T) {
	// An engine that cannot model softmax: the graph forecast must still
	// answer, with the fallbacks surfaced in the report and warning.
	flaky := predict.NewFuncEngine("flaky", predict.SourceRegression,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) {
			if k.Category() == kernels.CatSoftmax {
				return 0, &kernelError{k.Label()}
			}
			return 1, nil
		})
	reg := predict.NewRegistry()
	reg.MustRegister(flaky)
	ts := httptest.NewServer(NewHandler(NewMulti(reg, "flaky", Config{CacheSize: 256})))
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v2/predict/graph", map[string]any{
		"workload": "BERT-Large", "gpu": "V100", "batch": 2, "engine": "flaky",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	gr := decode[GraphResponseV2](t, resp)
	if gr.Engine != "flaky" || gr.LatencyMs <= 0 {
		t.Fatalf("graph v2 response = %+v", gr)
	}
	if gr.Report.Fallbacks == 0 {
		t.Error("BERT has softmax kernels; the report must count fallbacks")
	}
	if gr.Report.Predicted == 0 || gr.Report.Kernels != gr.Report.Predicted+gr.Report.Fallbacks {
		t.Errorf("report inconsistent: %+v", gr.Report)
	}
	if gr.Warning == "" || !strings.Contains(gr.Warning, "fallback") {
		t.Errorf("fallbacks must surface a warning, got %q", gr.Warning)
	}
}

type kernelError struct{ label string }

func (e *kernelError) Error() string { return "no model for " + e.label }

func TestHTTPV2Engines(t *testing.T) {
	ts := newMultiServer(t)
	resp, err := http.Get(ts.URL + "/v2/engines")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	er := decode[EnginesResponse](t, resp)
	if er.Default != "alpha" || len(er.Engines) != 2 {
		t.Fatalf("engines response = %+v", er)
	}
	byName := map[string]EngineInfo{}
	for _, e := range er.Engines {
		byName[e.Name] = e
	}
	if !byName["alpha"].Default || byName["beta"].Default {
		t.Errorf("default flags wrong: %+v", er.Engines)
	}
}

func TestHTTPV2Stats(t *testing.T) {
	ts := newMultiServer(t)
	for _, eng := range []string{"", "beta"} {
		resp := postJSON(t, ts.URL+"/v2/predict/kernel", map[string]any{
			"op": "layernorm", "b": 16, "m": 256, "gpu": "V100", "engine": eng,
		})
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatsV2](t, resp)
	if st.Requests != 2 || len(st.Engines) != 2 {
		t.Fatalf("v2 stats = %+v, want 2 requests over 2 engines", st)
	}
	for _, e := range st.Engines {
		if e.Requests != 1 {
			t.Errorf("engine %s requests = %d, want 1", e.Engine, e.Requests)
		}
	}
}

// TestHTTPV2HealthzAlias: the health probe answers on /v2 only; its /v1
// alias went with the rest of /v1.
func TestHTTPV2HealthzAlias(t *testing.T) {
	ts := newMultiServer(t)
	resp, err := http.Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[map[string]string](t, resp); h["status"] != "ok" || h["backend"] != "alpha" {
		t.Errorf("/v2/healthz = %v", h)
	}
	if resp, err = http.Get(ts.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/healthz = %d, want 404", resp.StatusCode)
	}
}
