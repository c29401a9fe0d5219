package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/predict"
	"neusight/internal/tile"
)

var (
	learnedOnce sync.Once
	learnedPred *core.Predictor
)

// learnedPredictor trains one tiny predictor over all five categories,
// shared by the tests that compare served answers with offline ones: they
// need real per-kernel forecasts that differ by shape, not accurate ones.
func learnedPredictor() *core.Predictor {
	learnedOnce.Do(func() {
		tdb := tile.NewDB()
		ds := dataset.Generate(dataset.GenConfig{
			Seed: 5, BMM: 60, FC: 40, EW: 30, Softmax: 20, LN: 20,
			GPUs: gpu.TrainSet(), MaxBMMDim: 512,
		}, gpusim.New(), tdb)
		learnedPred = core.NewPredictor(core.Config{
			Hidden: 16, Layers: 2, Epochs: 3, BatchSize: 128, LR: 3e-3, Seed: 5,
		}, tdb)
		learnedPred.Train(ds)
	})
	return learnedPred
}

// walkGraph is the node-by-node forecast the graph endpoint performed
// before graphs were compiled into plans: every node predicted on its own
// by predictKernel, summed in node order. Served answers must equal it bit
// for bit.
func walkGraph(gr *graph.Graph, g gpu.Spec, predictKernel func(kernels.Kernel) (float64, error)) (float64, core.GraphReport) {
	var rep core.GraphReport
	total := 0.0
	for _, n := range gr.Nodes {
		if n.Kernel.Category() == kernels.CatNetwork {
			rep.Network++
			continue
		}
		rep.Kernels++
		lat, err := predictKernel(n.Kernel)
		if err != nil {
			rep.Fallbacks++
			lat = core.MemBoundLatency(n.Kernel, g)
		} else {
			rep.Predicted++
		}
		total += lat
	}
	return total, rep
}

func buildGraph(m models.Config, batch int, training, fused bool) *graph.Graph {
	gr := m.InferenceGraph(batch)
	if training {
		gr = m.TrainingGraph(batch)
	}
	if fused {
		gr = graph.Fuse(gr)
	}
	return gr
}

// TestHTTPGraphEqualsOfflineNodeWalk: for every Table 5 model × batch
// {1, 4} × {inference, training, fused}, what /v2/predict/graph serves —
// cold, and again from the plan memo and the warm kernel cache — is
// exactly the offline node-by-node forecast.
func TestHTTPGraphEqualsOfflineNodeWalk(t *testing.T) {
	p := learnedPredictor()
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewCoreEngine(p))
	svc := NewMulti(reg, predict.EngineNeuSight, Config{})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	g := gpu.MustLookup("A100-80GB")

	graphs := 0
	for _, m := range models.Table5() {
		for _, batch := range []int{1, 4} {
			for _, mode := range []struct{ training, fused bool }{{false, false}, {true, false}, {false, true}} {
				gr := buildGraph(m, batch, mode.training, mode.fused)
				want, wantRep := walkGraph(gr, g, func(k kernels.Kernel) (float64, error) { return p.PredictKernel(k, g) })
				graphs++
				for _, pass := range []string{"cold", "memoized"} {
					resp := postJSON(t, ts.URL+"/v2/predict/graph", GraphRequest{
						Workload: m.Name, GPU: g.Name, Batch: batch, Training: mode.training, Fused: mode.fused,
					})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s b%d %+v: status %d", m.Name, batch, mode, resp.StatusCode)
					}
					got := decode[GraphResponseV2](t, resp)
					name := fmt.Sprintf("%s b%d training=%v fused=%v (%s)", m.Name, batch, mode.training, mode.fused, pass)
					if got.LatencyMs != want {
						t.Errorf("%s: served %v, offline node walk %v (difference %g)", name, got.LatencyMs, want, got.LatencyMs-want)
					}
					if got.Report != wantRep || got.Warning != "" {
						t.Errorf("%s: report %+v warning %q, node walk %+v", name, got.Report, got.Warning, wantRep)
					}
					if got.Kernels != len(gr.Nodes) || got.TotalFLOPs != gr.TotalFLOPs() {
						t.Errorf("%s: kernels/flops = %d/%v, graph has %d/%v", name, got.Kernels, got.TotalFLOPs, len(gr.Nodes), gr.TotalFLOPs())
					}
				}
			}
		}
	}
	if st := svc.PlanMemoStats(); int(st.Misses) != graphs || int(st.Hits) != graphs || st.Len != graphs {
		t.Errorf("plan memo = %+v, want %d misses, hits and entries", st, graphs)
	}
}

// TestGraphReportUnchangedByPlan: with an engine that cannot model
// softmax, the served report counts one fallback per softmax node (not per
// distinct softmax kernel), network nodes are counted and skipped, and the
// v2 warning reads as it did when every node was predicted on its own.
func TestGraphReportUnchangedByPlan(t *testing.T) {
	noSoftmax := func(k kernels.Kernel, g gpu.Spec) (float64, error) {
		if k.Category() == kernels.CatSoftmax {
			return 0, &kernelError{k.Label()}
		}
		return float64(k.M) * 1e-3, nil
	}
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewFuncEngine("flaky", predict.SourceRegression, noSoftmax))
	svc := NewMulti(reg, "flaky", Config{CacheSize: 256})
	g := gpu.MustLookup("V100")
	m := models.MustLookup("BERT-Large")
	predictKernel := func(k kernels.Kernel) (float64, error) { return noSoftmax(k, g) }

	// Over HTTP, on the registered workload.
	gr := m.InferenceGraph(2)
	want, wantRep := walkGraph(gr, g, predictKernel)
	if wantRep.Fallbacks < 2 {
		t.Fatalf("fixture: BERT-Large should have several softmax nodes, walk found %d", wantRep.Fallbacks)
	}
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	got := decode[GraphResponseV2](t, postJSON(t, ts.URL+"/v2/predict/graph",
		GraphRequest{Workload: m.Name, GPU: g.Name, Batch: 2}))
	if got.LatencyMs != want || got.Report != wantRep {
		t.Errorf("served %v %+v, node walk %v %+v", got.LatencyMs, got.Report, want, wantRep)
	}
	softmax := kernels.Kernel{}
	for _, k := range gr.Kernels() {
		if k.Category() == kernels.CatSoftmax {
			softmax = k
			break
		}
	}
	wantWarning := fmt.Sprintf("core: %d of %d kernels could not be predicted and used the memory-bound fallback (first: no model for %s)",
		wantRep.Fallbacks, wantRep.Kernels, softmax.Label())
	if got.Warning != wantWarning {
		t.Errorf("warning = %q, want %q", got.Warning, wantWarning)
	}

	// In process, with network nodes appended.
	last := len(gr.Nodes) - 1
	gr.Add(kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1}, last)
	gr.Add(kernels.Kernel{Op: kernels.OpSendRecv, B: 1 << 16, M: 1}, last)
	want, wantRep = walkGraph(gr, g, predictKernel)
	lat, rep, err := svc.PredictGraphEngine(context.Background(), "", gr, g)
	if lat != want || rep != wantRep || rep.Network != 2 {
		t.Errorf("with network nodes: served %v %+v, node walk %v %+v", lat, rep, want, wantRep)
	}
	var ke *kernelError
	if !errors.As(err, &ke) {
		t.Errorf("error = %v, want it to wrap the engine's softmax error", err)
	}
}

// TestCountersConserve pins requests == cache_hits + cache_misses +
// deduped over kernel, batch and graph traffic (no invalid kernels), in
// the aggregate, per engine, and on /metrics — and that a graph counts
// every predictable node as a request but only its distinct kernels as
// cache reads.
func TestCountersConserve(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := NewMulti(reg, predict.EngineRoofline, Config{})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)

	check := func(when string, wantRequests, wantDeduped uint64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		st := decode[StatsV2](t, resp)
		if st.Requests != wantRequests || st.Deduped != wantDeduped {
			t.Errorf("%s: requests/deduped = %d/%d, want %d/%d", when, st.Requests, st.Deduped, wantRequests, wantDeduped)
		}
		if st.Requests != st.CacheHits+st.CacheMisses+st.Deduped {
			t.Errorf("%s: requests %d != hits %d + misses %d + deduped %d", when, st.Requests, st.CacheHits, st.CacheMisses, st.Deduped)
		}
		if len(st.Engines) != 1 {
			t.Fatalf("%s: %d engines in stats, want 1", when, len(st.Engines))
		}
		if e := st.Engines[0]; e.Requests != e.CacheHits+e.CacheMisses+e.Deduped || e.Deduped != wantDeduped {
			t.Errorf("%s: engine requests %d != hits %d + misses %d + deduped %d (want deduped %d)",
				when, e.Requests, e.CacheHits, e.CacheMisses, e.Deduped, wantDeduped)
		}
	}

	for i := 0; i < 2; i++ { // a miss, then a hit
		postJSON(t, ts.URL+"/v2/predict/kernel", KernelRequest{Op: "layernorm", B: 64, M: 1024, GPU: "V100"}).Body.Close()
	}
	check("kernels", 2, 0)

	sm := KernelRequest{Op: "softmax", B: 8, M: 128}
	postJSON(t, ts.URL+"/v2/predict/batch", BatchRequest{GPU: "V100", Kernels: []KernelRequest{
		sm, {Op: "softmax", B: 16, M: 128}, sm, sm, // two in-batch repeats
	}}).Body.Close()
	check("batch", 6, 2)

	m := models.MustLookup("BERT-Large")
	pl := graph.Compile(m.InferenceGraph(2))
	repeats := uint64(pl.Predictable() - len(pl.Kernels))
	if repeats == 0 {
		t.Fatal("fixture: BERT-Large should repeat kernels across layers")
	}
	before := svc.Stats()
	for i := 0; i < 2; i++ { // cold, then memoized and cache-warm
		postJSON(t, ts.URL+"/v2/predict/graph", GraphRequest{Workload: m.Name, GPU: "V100", Batch: 2}).Body.Close()
	}
	check("graphs", 6+2*uint64(pl.Predictable()), 2+2*repeats)
	after := svc.Stats()
	if reads := (after.CacheHits + after.CacheMisses) - (before.CacheHits + before.CacheMisses); reads != 2*uint64(len(pl.Kernels)) {
		t.Errorf("two graph requests made %d cache reads, want one per distinct kernel (%d)", reads, 2*len(pl.Kernels))
	}
	if after.CacheMisses-before.CacheMisses != uint64(len(pl.Kernels)) {
		t.Errorf("graph misses = %d, want %d (the cold request's distinct kernels)", after.CacheMisses-before.CacheMisses, len(pl.Kernels))
	}

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	if st := decode[StatsV2](t, resp); st.GraphPlans != (PlanMemoStats{Hits: 1, Misses: 1, Len: 1}) {
		t.Errorf("graph_plans = %+v, want 1 hit, 1 miss, 1 entry", st.GraphPlans)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nneusight_deduped_total %d\n", after.Deduped); !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestCancelledGraphCountsPerNode: an aborted graph forecast still
// accounts for every node it was asked about — as requests and as errors.
func TestCancelledGraphCountsPerNode(t *testing.T) {
	svc := multiService(t)
	gr := models.MustLookup("BERT-Large").InferenceGraph(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lat, rep, err := svc.PredictGraphEngine(ctx, "", gr, gpu.MustLookup("V100"))
	if !errors.Is(err, context.Canceled) || lat != 0 {
		t.Fatalf("cancelled forecast = (%v, %v), want (0, context.Canceled)", lat, err)
	}
	if want := (core.GraphReport{Kernels: len(gr.Nodes)}); rep != want {
		t.Errorf("aborted report = %+v, want %+v", rep, want)
	}
	if st := svc.Stats(); st.Requests != uint64(len(gr.Nodes)) || st.Errors != st.Requests {
		t.Errorf("requests/errors = %d/%d, want %d/%d", st.Requests, st.Errors, len(gr.Nodes), len(gr.Nodes))
	}
}

// TestPlanMemoConcurrentFirstRequests: many clients asking for the same
// uncompiled graph at once (run under -race by scripts/check.sh) all get
// the same answer and leave one memo entry.
func TestPlanMemoConcurrentFirstRequests(t *testing.T) {
	p := learnedPredictor()
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewCoreEngine(p))
	svc := NewMulti(reg, predict.EngineNeuSight, Config{})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	g := gpu.MustLookup("H100")
	m := models.MustLookup("GPT2-Large")
	want, _ := walkGraph(graph.Fuse(m.InferenceGraph(2)), g, func(k kernels.Kernel) (float64, error) { return p.PredictKernel(k, g) })

	const clients = 16
	body := fmt.Sprintf(`{"workload":%q,"gpu":%q,"batch":2,"fused":true}`, m.Name, g.Name)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/predict/graph", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var got GraphResponseV2
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Error(err)
				return
			}
			if got.LatencyMs != want || got.Warning != "" {
				t.Errorf("concurrent first request served %v (warning %q), want %v", got.LatencyMs, got.Warning, want)
			}
		}()
	}
	wg.Wait()
	if st := svc.PlanMemoStats(); st.Len != 1 || st.Hits+st.Misses != clients || st.Misses == 0 {
		t.Errorf("plan memo after %d concurrent first requests = %+v, want 1 entry", clients, st)
	}
}

// TestPlanMemoStaysBounded: a client sweeping batch sizes cannot grow the
// memo past its bound, and evicted plans are rebuilt on demand.
func TestPlanMemoStaysBounded(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := NewMulti(reg, predict.EngineRoofline, Config{})
	h := NewHandler(svc)
	post := func(batch int) float64 {
		t.Helper()
		body := fmt.Sprintf(`{"workload":"BERT-Large","gpu":"T4","batch":%d}`, batch)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/predict/graph", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", batch, rec.Code, rec.Body)
		}
		return decode[GraphResponseV2](t, rec.Result()).LatencyMs
	}
	first := post(1)
	for batch := 2; batch <= planMemoSize+40; batch++ {
		post(batch)
		if n := svc.PlanMemoStats().Len; n > planMemoSize {
			t.Fatalf("plan memo holds %d entries after batch %d, bound is %d", n, batch, planMemoSize)
		}
	}
	if st := svc.PlanMemoStats(); st.Len != planMemoSize || st.Hits != 0 {
		t.Errorf("plan memo after the sweep = %+v, want %d entries and no hits", st, planMemoSize)
	}
	if again := post(1); again != first { // batch 1 was evicted: rebuilt, same answer
		t.Errorf("batch 1 after eviction = %v, want %v", again, first)
	}
}
