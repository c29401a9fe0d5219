package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/predict"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

// captureStdout runs f with os.Stdout pointed at a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func TestListGPUs(t *testing.T) {
	out := captureStdout(t, listGPUs)
	for _, want := range []string{"H100", "V100", "MI250", "B200", "PEAK TFLOPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("list-gpus output missing %q", want)
		}
	}
}

func TestListModels(t *testing.T) {
	out := captureStdout(t, listModels)
	for _, want := range []string{"BERT-Large", "GPT3-2.7B", "SwitchTrans", "OOD"} {
		if !strings.Contains(out, want) {
			t.Errorf("list-models output missing %q", want)
		}
	}
}

func TestForecastPrintsLatency(t *testing.T) {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 3, BMM: 80, FC: 40, EW: 30, Softmax: 15, LN: 15,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{
		Hidden: 24, Layers: 2, Epochs: 10, BatchSize: 128, LR: 3e-3, Seed: 3,
	}, tdb)
	p.Train(ds)

	out := captureStdout(t, func() error {
		return forecast(p, "BERT-Large", "V100", 8, false, false)
	})
	if !strings.Contains(out, "predicted latency") || !strings.Contains(out, "BERT-Large on V100") {
		t.Fatalf("forecast output: %q", out)
	}
	// Training + fusion path.
	out = captureStdout(t, func() error {
		return forecast(p, "GPT2-Large", "L4", 2, true, true)
	})
	if !strings.Contains(out, "fused") || !strings.Contains(out, "training iteration") {
		t.Fatalf("forecast training/fused output: %q", out)
	}
}

func TestForecastUnknownInputs(t *testing.T) {
	p := core.NewPredictor(core.DefaultConfig(), nil)
	if err := forecast(p, "NotAModel", "V100", 1, false, false); err == nil {
		t.Fatal("unknown workload must error")
	}
	if err := forecast(p, "BERT-Large", "NotAGPU", 1, false, false); err == nil {
		t.Fatal("unknown GPU must error")
	}
}

// TestQuickPredictorDigest pins the bits of the model `quick` and
// `serve -quick` train: the SHA-256 of quickPredictor's Save output. The
// digest does not depend on GOMAXPROCS; a change that moves it changes
// every forecast the quick model serves, and must say so.
func TestQuickPredictorDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := quickPredictor().Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "937e0e896de5ab83b4fab11b908a822aeecba6566d6348920ee1a6733b4305ef"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("quick model digest %s, want %s", got, want)
	}
}

func TestTrainPredictRoundTripCLI(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.csv")
	tilePath := filepath.Join(dir, "tiles.json")
	modelPath := filepath.Join(dir, "model.json")

	// Produce a small dataset the way cmd/datagen would.
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 4, BMM: 40, FC: 20, EW: 15, Softmax: 8, LN: 8,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	if err := ds.SaveCSV(dataPath); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Save(tilePath); err != nil {
		t.Fatal(err)
	}

	_ = captureStdout(t, func() error {
		return train([]string{"-data", dataPath, "-out", modelPath, "-tiles", tilePath})
	})
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("train did not write the model: %v", err)
	}
	out := captureStdout(t, func() error {
		return predictCmd([]string{"-model", modelPath, "-tiles", tilePath,
			"-workload", "BERT-Large", "-gpu", "T4", "-batch", "4"})
	})
	if !strings.Contains(out, "predicted latency") {
		t.Fatalf("predict output: %q", out)
	}
}

func TestTrainRequiresData(t *testing.T) {
	if err := train([]string{}); err == nil {
		t.Fatal("train without -data must error")
	}
}

func TestEnginesSubcommandListsStandardSet(t *testing.T) {
	out := captureStdout(t, listEngines)
	for _, want := range []string{
		"neusight", "habitat", "liregression", "roofline",
		"direct-mlp", "direct-transformer", "gpusim",
		"NAME", "SOURCE", "TRAINABLE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("engines output missing %q:\n%s", want, out)
		}
	}
}

// TestPredictWithAnalyticalEngine: -engine routes a forecast through a
// non-default engine with no model files required.
func TestPredictWithAnalyticalEngine(t *testing.T) {
	out := captureStdout(t, func() error {
		return predictCmd([]string{"-engine", "roofline",
			"-workload", "BERT-Large", "-gpu", "V100", "-batch", "2"})
	})
	for _, want := range []string{"engine: roofline", "predicted latency", "BERT-Large on V100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("roofline forecast output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() error {
		return predictCmd([]string{"-engine", "gpusim",
			"-workload", "BERT-Large", "-gpu", "V100", "-batch", "2", "-breakdown"})
	})
	if !strings.Contains(out, "engine: gpusim") || !strings.Contains(out, "by operator category") {
		t.Fatalf("gpusim forecast output:\n%s", out)
	}
}

func TestPredictUnknownEngine(t *testing.T) {
	if err := predictCmd([]string{"-engine", "crystal-ball", "-workload", "BERT-Large", "-gpu", "V100"}); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestServeCmdRequiresSource(t *testing.T) {
	if err := serveCmd([]string{"-addr", ":0"}); err == nil {
		t.Fatal("serve without -model or -quick must error")
	}
}

func TestServeCmdFlagValidation(t *testing.T) {
	if err := serveCmd([]string{"-quick", "-trace-compact", "3"}); err == nil {
		t.Fatal("-trace-compact without -trace-record must error")
	}
	if err := serveCmd([]string{"-quick", "-cluster-listen", ":0"}); err == nil {
		t.Fatal("-cluster-listen without -peers must error")
	}
	if err := serveCmd([]string{"-quick", "-advertise", "h:1"}); err == nil {
		t.Fatal("-advertise without -peers must error")
	}
	// -model beside -quick would be ignored, and with it every saved
	// calibration; the pair fails before -quick trains anything.
	if err := serveCmd([]string{"-quick", "-model", "m.json"}); err == nil || !strings.Contains(err.Error(), "not both") {
		t.Fatalf("-quick -model = %v, want an error", err)
	}
	// -steer validation must run before the expensive training step: these
	// return in milliseconds precisely because they fail early.
	for _, mode := range []string{"proyx", "redirect"} {
		err := serveCmd([]string{"-quick", "-peers", "h:1", "-steer", mode})
		if err == nil || !strings.Contains(err.Error(), "want proxy or off") {
			t.Fatalf("-steer %s = %v, want an error naming proxy and off", mode, err)
		}
	}
	// -steer proxy is the default, yet setting it still needs a cluster.
	if err := serveCmd([]string{"-quick", "-steer", "proxy"}); err == nil {
		t.Fatal("-steer proxy without -peers must error")
	}
}

// TestServeClusterProxiesByDefault starts two `serve` members in this
// process with no -steer flag and sends one of them a kernel whose
// (engine, GPU) key the other owns: the default mode proxies it there.
func TestServeClusterProxiesByDefault(t *testing.T) {
	a, b := freeAddr(t), freeAddr(t)
	done := make(chan error, 2)
	for _, m := range [][2]string{{a, b}, {b, a}} {
		args := []string{"-engines", "roofline", "-addr", m[0], "-peers", m[1]}
		go func() { done <- serveCmd(args) }()
	}
	for _, addr := range []string{a, b} {
		if err := waitHealthy(addr, done); err != nil {
			t.Fatal(err)
		}
	}
	// Both members answer, so both have installed their SIGTERM handler:
	// one signal shuts both down.
	t.Cleanup(func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(20 * time.Second):
				t.Error("serve did not shut down on SIGTERM")
			}
		}
	})

	ring := fetchRing(t, a)
	var gpuB string
	for _, as := range ring.Assignments {
		if as.Owner == b {
			gpuB = as.GPU
			break
		}
	}
	if gpuB == "" {
		t.Fatalf("no key owned by %s in %+v", b, ring.Assignments)
	}
	resp, err := http.Post("http://"+a+"/v2/predict/kernel", "application/json",
		strings.NewReader(fmt.Sprintf(`{"op":"bmm","b":2,"m":64,"k":64,"n":64,"gpu":%q}`, gpuB)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-owned kernel = %d, want 200", resp.StatusCode)
	}
	if ring := fetchRing(t, a); ring.Mode != cluster.SteerProxy || ring.Steering.Proxied != 1 {
		t.Fatalf("ring mode %q, steering %+v; want proxy with 1 proxied request", ring.Mode, ring.Steering)
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitHealthy polls addr's /v2/healthz until it answers 200, failing
// early when a serve command returns on done.
func waitHealthy(addr string, done <-chan error) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			return fmt.Errorf("serve returned before %s came up: %v", addr, err)
		default:
		}
		if resp, err := http.Get("http://" + addr + "/v2/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", addr)
}

// fetchRing reads addr's /v2/cluster/ring.
func fetchRing(t *testing.T, addr string) cluster.RingResponse {
	t.Helper()
	resp, err := http.Get("http://" + addr + cluster.RouteRing)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring cluster.RingResponse
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	return ring
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" h1:8080, ,h2:8080 ,")
	if len(got) != 2 || got[0] != "h1:8080" || got[1] != "h2:8080" {
		t.Fatalf("splitPeers = %v", got)
	}
	if splitPeers("") != nil {
		t.Fatal("splitPeers(\"\") must be empty")
	}
}

func TestDeriveSelf(t *testing.T) {
	for addr, want := range map[string]string{
		":8080":          "127.0.0.1:8080",
		"0.0.0.0:8080":   "127.0.0.1:8080",
		"[::]:8080":      "127.0.0.1:8080",
		"10.1.2.3:8080":  "10.1.2.3:8080",
		"myhost:8080":    "myhost:8080",
		"not-an-address": "not-an-address",
	} {
		if got := deriveSelf(addr); got != want {
			t.Errorf("deriveSelf(%q) = %q, want %q", addr, got, want)
		}
	}
}

// TestServeEndToEnd exercises the stack the serve subcommand assembles —
// a real trained predictor behind serve.NewMulti and serve.NewHandler — through
// an httptest server, the same wiring minus ListenAndServe.
func TestServeEndToEnd(t *testing.T) {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 9, BMM: 60, FC: 30, EW: 20, Softmax: 10, LN: 10,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{
		Hidden: 24, Layers: 2, Epochs: 8, BatchSize: 128, LR: 3e-3, Seed: 9,
	}, tdb)
	p.Train(ds)

	svc := serviceOf(predict.NewCoreEngine(p), serve.Config{CacheSize: 256})
	ts := httptest.NewServer(serve.NewHandler(svc))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	// Two identical graph forecasts: within the first, duplicate kernels
	// may coalesce rather than hit the cache (scheduling-dependent), but
	// the second is guaranteed to be served from cache.
	var gr serve.GraphResponse
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(serve.GraphRequest{Workload: "BERT-Large", GPU: "V100", Batch: 2})
		resp, err = http.Post(ts.URL+"/v2/predict/graph", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || gr.LatencyMs <= 0 || gr.Kernels <= 0 {
			t.Fatalf("graph forecast = %+v (status %d)", gr, resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests == 0 {
		t.Error("stats show no requests after a graph forecast")
	}
	if st.HitRate == 0 {
		t.Error("hit rate = 0: the repeated graph forecast must be served from cache")
	}
}

func TestForecastBreakdownFlag(t *testing.T) {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 6, BMM: 60, FC: 30, EW: 20, Softmax: 10, LN: 10,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{
		Hidden: 24, Layers: 2, Epochs: 8, BatchSize: 128, LR: 3e-3, Seed: 6,
	}, tdb)
	p.Train(ds)
	out := captureStdout(t, func() error {
		return forecastOpts(p, "BERT-Large", "V100", 4, false, false, true)
	})
	for _, want := range []string{"by operator category", "top kernels"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown output missing %q:\n%s", want, out)
		}
	}
}

// TestRunServerGracefulShutdown drives runServer the way a SIGINT would:
// requests succeed while the context is live; cancelling it drains and
// returns nil; afterwards the listener is closed to new connections.
func TestRunServerGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stub := predict.NewFuncEngine("stub", predict.SourceAnalytical,
		func(kernels.Kernel, gpu.Spec) (float64, error) { return 1, nil })
	svc := serviceOf(stub, serve.Config{CacheSize: 16})
	srv := &http.Server{Handler: serve.NewHandler(svc)}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() { done <- runServer(ctx, srv, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String() + "/v2/healthz"
	var resp *http.Response
	for i := 0; i < 100; i++ { // wait for the server to accept
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	_ = captureStdout(t, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("runServer did not return after context cancel")
		}
	})
	if _, err := http.Get(url); err == nil {
		t.Error("listener still accepting connections after graceful shutdown")
	}
}

// serviceOf serves eng as the single, default engine.
func serviceOf(eng predict.Engine, cfg serve.Config) *serve.Service {
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	return serve.NewMulti(reg, eng.Name(), cfg)
}
