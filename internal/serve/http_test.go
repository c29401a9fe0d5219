package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// newTestServer spins an httptest server around a stub-backed service.
func newTestServer(t *testing.T) (*httptest.Server, *stubPredictor) {
	t.Helper()
	stub := &stubPredictor{latency: 4.25}
	ts := httptest.NewServer(NewHandler(serviceOf(stub.engine(), Config{CacheSize: 64})))
	t.Cleanup(ts.Close)
	return ts, stub
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPPredictKernelRoundTrip(t *testing.T) {
	ts, stub := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v2/predict/kernel", KernelRequest{
		Op: "bmm", B: 8, M: 512, K: 512, N: 512, DType: "fp16", GPU: "H100",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	kr := decode[KernelResponse](t, resp)
	if kr.LatencyMs != 4.25 {
		t.Errorf("latency = %v, want 4.25", kr.LatencyMs)
	}
	if kr.GPU != "H100" || kr.FLOPs <= 0 || kr.MemBytes <= 0 {
		t.Errorf("response incomplete: %+v", kr)
	}

	// Identical request again: served from cache, backend untouched.
	resp = postJSON(t, ts.URL+"/v2/predict/kernel", KernelRequest{
		Op: "bmm", B: 8, M: 512, K: 512, N: 512, DType: "fp16", GPU: "H100",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("backend calls = %d, want 1 (second request must hit cache)", got)
	}
}

func TestHTTPPredictKernelValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		req  KernelRequest
		want int
	}{
		{"unknown op", KernelRequest{Op: "conv9d", B: 1, M: 1, GPU: "V100"}, http.StatusBadRequest},
		{"nonpositive dim", KernelRequest{Op: "bmm", B: 0, M: 4, K: 4, N: 4, GPU: "V100"}, http.StatusBadRequest},
		{"unknown gpu", KernelRequest{Op: "softmax", B: 4, M: 4, GPU: "TPUv9"}, http.StatusBadRequest},
		{"unknown dtype", KernelRequest{Op: "softmax", B: 4, M: 4, DType: "int4", GPU: "V100"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v2/predict/kernel", c.req)
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.want)
			}
		})
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v2/predict/kernel")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPPredictGraphRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v2/predict/graph", GraphRequest{
		Workload: "BERT-Large", GPU: "V100", Batch: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	gr := decode[GraphResponse](t, resp)
	if gr.Kernels <= 0 || gr.LatencyMs <= 0 || gr.TotalFLOPs <= 0 {
		t.Errorf("response incomplete: %+v", gr)
	}
	if gr.Workload != "BERT-Large" || gr.Batch != 2 {
		t.Errorf("echo fields wrong: %+v", gr)
	}

	resp = postJSON(t, ts.URL+"/v2/predict/graph", GraphRequest{Workload: "NoSuchNet", GPU: "V100"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	h := decode[map[string]string](t, resp)
	if h["status"] != "ok" || h["backend"] != "stub" {
		t.Errorf("healthz = %v", h)
	}
}

func TestHTTPStats(t *testing.T) {
	ts, _ := newTestServer(t)
	// Generate one miss then one hit so the stats are non-trivial.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v2/predict/kernel", KernelRequest{
			Op: "layernorm", B: 64, M: 1024, GPU: "V100",
		})
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	st := decode[Stats](t, resp)
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 2 requests, 1 hit, 1 miss", st)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
	if st.Backend != "stub" || st.UptimeSec < 0 {
		t.Errorf("stats metadata wrong: %+v", st)
	}
}

func TestHTTPPredictBatchRoundTrip(t *testing.T) {
	ts, stub := newTestServer(t)
	req := BatchRequest{
		GPU: "H100",
		Kernels: []KernelRequest{
			{Op: "bmm", B: 4, M: 256, K: 256, N: 256},
			{Op: "softmax", B: 64, M: 512},
			{Op: "conv9d", B: 1, M: 1},                // malformed: fails in place
			{Op: "bmm", B: 4, M: 256, K: 256, N: 256}, // duplicate of [0]
		},
	}
	resp := postJSON(t, ts.URL+"/v2/predict/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	br := decode[BatchResponse](t, resp)
	if br.GPU != "H100" || br.Count != 4 || len(br.Items) != 4 {
		t.Fatalf("batch response shape wrong: %+v", br)
	}
	for _, i := range []int{0, 1, 3} {
		if br.Items[i].Error != "" || br.Items[i].LatencyMs != 4.25 {
			t.Errorf("item %d = %+v, want latency 4.25", i, br.Items[i])
		}
		if br.Items[i].Kernel == "" {
			t.Errorf("item %d missing kernel label", i)
		}
	}
	if br.Items[2].Error == "" {
		t.Error("malformed item must carry an in-place error")
	}
	// Duplicate + dedup: only two unique kernels reach the backend.
	if got := stub.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2", got)
	}
}

func TestHTTPPredictBatchValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		req  BatchRequest
		want int
	}{
		{"empty batch", BatchRequest{GPU: "V100"}, http.StatusBadRequest},
		{"unknown gpu", BatchRequest{GPU: "TPUv9", Kernels: []KernelRequest{{Op: "softmax", B: 1, M: 1}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v2/predict/batch", c.req)
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.want)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v2/predict/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestHTTPMetricsExpositionFormat asserts the Prometheus text format
// contract: content type 0.0.4, a "# HELP" and "# TYPE" line preceding
// every sample, parseable float values, and the serve counters present
// with the values /v2/stats reports.
func TestHTTPMetricsExpositionFormat(t *testing.T) {
	ts, _ := newTestServer(t)
	// One miss then one hit so counters are non-trivial.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v2/predict/kernel", KernelRequest{
			Op: "layernorm", B: 64, M: 1024, GPU: "V100",
		})
		resp.Body.Close()
	}
	// And one batch so the batch metrics move.
	resp := postJSON(t, ts.URL+"/v2/predict/batch", BatchRequest{
		GPU: "V100", Kernels: []KernelRequest{{Op: "softmax", B: 8, M: 128}, {Op: "softmax", B: 16, M: 128}},
	})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		t.Errorf("content type = %q, want %q", ct, MetricsContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples := map[string]float64{}
	var lastHelp, lastType string
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			lastHelp = strings.Fields(line)[2]
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			lastType = f[2]
			if typ := f[3]; typ != "counter" && typ != "gauge" {
				t.Errorf("metric %s has invalid type %q", lastType, typ)
			}
			if lastType != lastHelp {
				t.Errorf("TYPE line for %s not paired with HELP line (%s)", lastType, lastHelp)
			}
		default:
			f := strings.Fields(line)
			if len(f) != 2 {
				t.Fatalf("malformed sample line %q", line)
			}
			// Labeled samples carry {engine="..."}; the
			// family name is everything before the label set.
			family := f[0]
			if i := strings.IndexByte(family, '{'); i >= 0 {
				family = family[:i]
			}
			if family != lastType {
				t.Errorf("sample %s not preceded by its TYPE line (%s)", f[0], lastType)
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("sample %q has unparseable value: %v", line, err)
			}
			samples[f[0]] = v
		}
	}

	want := map[string]float64{
		"neusight_requests_total":        4, // 2 singles + 2 batched
		"neusight_cache_hits_total":      1,
		"neusight_cache_misses_total":    3,
		"neusight_deduped_total":         0,
		"neusight_batch_requests_total":  1,
		"neusight_batched_kernels_total": 2,
		"neusight_batch_size_avg":        2,
		"neusight_errors_total":          0,
		"neusight_inflight_requests":     0,
		"neusight_rejected_total":        0,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, ok := samples["neusight_uptime_seconds"]; !ok {
		t.Error("uptime gauge missing")
	}
	// The engine-labeled series must mirror the single engine's share of
	// the traffic — here all of it.
	wantLabeled := map[string]float64{
		`neusight_engine_requests_total{engine="stub"}`:     4,
		`neusight_engine_cache_hits_total{engine="stub"}`:   1,
		`neusight_engine_cache_misses_total{engine="stub"}`: 3,
		`neusight_engine_errors_total{engine="stub"}`:       0,
	}
	for name, v := range wantLabeled {
		got, ok := samples[name]
		if !ok {
			t.Errorf("labeled metric %s missing from exposition", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// TestHTTPRequestLimits covers the resource bounds: oversized bodies and
// oversized batches are rejected with 400 before any backend work.
func TestHTTPRequestLimits(t *testing.T) {
	ts, stub := newTestServer(t)

	// A batch over the kernel cap.
	over := BatchRequest{GPU: "V100", Kernels: make([]KernelRequest, MaxBatchKernels+1)}
	for i := range over.Kernels {
		over.Kernels[i] = KernelRequest{Op: "softmax", B: 1 + i, M: 8}
	}
	resp := postJSON(t, ts.URL+"/v2/predict/batch", over)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}
	if got := stub.calls.Load(); got != 0 {
		t.Errorf("oversized batch reached the backend (%d calls)", got)
	}

	// A body over the byte cap: valid JSON prefix, then megabytes of junk.
	big := bytes.NewBufferString(`{"gpu":"V100","kernels":[{"op":"softmax","b":1,"m":8}],"pad":"`)
	big.Write(bytes.Repeat([]byte("x"), maxBodyBytes+1024))
	big.WriteString(`"}`)
	r, err := http.Post(ts.URL+"/v2/predict/batch", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", r.StatusCode)
	}
	e := decode[map[string]string](t, r)
	if !strings.Contains(e["error"], "byte limit") {
		t.Errorf("413 body does not name the limit: %v", e)
	}
}

// TestHTTPDimensionAndBatchBounds: absurd dimensions and graph batch
// values must be rejected with 400, not overflow int arithmetic into a
// handler panic (graph construction multiplies batch into token counts).
func TestHTTPDimensionAndBatchBounds(t *testing.T) {
	ts, _ := newTestServer(t)

	// Kernel dimension over maxDim.
	resp := postJSON(t, ts.URL+"/v2/predict/kernel", KernelRequest{
		Op: "bmm", B: 1, M: maxDim + 1, K: 64, N: 64, GPU: "V100",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized dimension status = %d, want 400", resp.StatusCode)
	}

	// Graph batch large enough that batch*SeqLen would overflow int64.
	resp = postJSON(t, ts.URL+"/v2/predict/graph", GraphRequest{
		Workload: "GPT3-XL", GPU: "V100", Batch: 1 << 62,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing graph batch status = %d, want 400", resp.StatusCode)
	}

	// A legitimate large-but-sane graph batch still works.
	resp = postJSON(t, ts.URL+"/v2/predict/graph", GraphRequest{
		Workload: "BERT-Large", GPU: "V100", Batch: 64,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("sane graph batch status = %d, want 200", resp.StatusCode)
	}
}
