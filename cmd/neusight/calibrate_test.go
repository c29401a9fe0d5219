package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

// trainModelFiles trains a small model with `neusight train`, writing the
// model into its own directory under dir and the tile database beside it.
func trainModelFiles(t *testing.T, dir string) (modelPath, tilePath string) {
	t.Helper()
	dataPath := filepath.Join(dir, "data.csv")
	tilePath = filepath.Join(dir, "tiles.json")
	modelDir := filepath.Join(dir, "model")
	if err := os.Mkdir(modelDir, 0o755); err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(modelDir, "model.json")
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
	return modelPath, tilePath
}

// startServe runs `serve -addr addr args...` in this process until the
// returned stop sends SIGTERM (stop is also registered as a cleanup; a
// second call is a no-op).
func startServe(t *testing.T, addr string, args ...string) (stop func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- serveCmd(append([]string{"-addr", addr}, args...)) }()
	if err := waitHealthy(addr, done); err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(20 * time.Second):
			t.Error("serve did not shut down on SIGTERM")
		}
	}
	t.Cleanup(stop)
	return stop
}

// postJSON posts body to addr+route and decodes the 200 reply into out.
func postJSON(t *testing.T, addr, route string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+route, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", route, resp.StatusCode, reply)
	}
	if err := json.Unmarshal(reply, out); err != nil {
		t.Fatal(err)
	}
}

// predictBatch forecasts ks on gpuName through /v2/predict/batch.
func predictBatch(t *testing.T, addr, gpuName string, ks []kernels.Kernel) []float64 {
	t.Helper()
	req := serve.BatchRequestV2{BatchRequest: serve.BatchRequest{GPU: gpuName}}
	for _, k := range ks {
		kr, ok := serve.KernelRequestOf(k)
		if !ok {
			t.Fatalf("kernel %s has no API form", k.Label())
		}
		req.Kernels = append(req.Kernels, kr)
	}
	var resp serve.BatchResponseV2
	postJSON(t, addr, "/v2/predict/batch", req, &resp)
	lats := make([]float64, len(resp.Items))
	for i, it := range resp.Items {
		if it.Error != "" {
			t.Fatalf("%s on %s: %s", ks[i].Label(), gpuName, it.Error)
		}
		lats[i] = it.LatencyMs
	}
	return lats
}

// observeReport reads the drift report off /v2/stats.
func observeReport(t *testing.T, addr string) serve.StatsV2 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsV2
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Observe == nil {
		t.Fatal("/v2/stats has no observe section")
	}
	return st
}

// driftWindow is MinSamples distinct in-distribution BMM shapes, large
// enough that the learned utilization sits above the floor clamp and a
// calibration moves them.
func driftWindow() []kernels.Kernel {
	var ks []kernels.Kernel
	for _, b := range []int{2, 4, 8, 16} {
		for _, m := range []int{256, 320, 384, 448, 512, 576, 640, 768} {
			ks = append(ks, kernels.NewBMM(b, m, 512, 512))
		}
	}
	return ks
}

// postDrift posts observations of ks on H100, each 3x slower than addr's
// current forecast.
func postDrift(t *testing.T, addr string, ks []kernels.Kernel) {
	t.Helper()
	lats := predictBatch(t, addr, "H100", ks)
	var req serve.ObserveBatchRequest
	for i, k := range ks {
		kr, _ := serve.KernelRequestOf(k)
		req.Observations = append(req.Observations, serve.ObserveRequest{Kernel: kr, GPU: "H100", ObservedMs: 3 * lats[i]})
	}
	var resp serve.ObserveResponse
	postJSON(t, addr, "/v2/observe", req, &resp)
}

// observeDrift posts one drift window — exactly MinSamples observations,
// so the last one crosses the retrain bar once — and waits for the
// retrain to finish.
func observeDrift(t *testing.T, addr string) serve.StatsV2 {
	t.Helper()
	postDrift(t, addr, driftWindow())
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := observeReport(t, addr)
		if o := st.Observe; !o.RetrainActive && o.Retrains+o.RetrainErrors > 0 {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no retrain finished within 30s")
	return serve.StatsV2{}
}

// restartProbes is a BMM/Linear/Softmax/LayerNorm probe set.
func restartProbes() []kernels.Kernel {
	return []kernels.Kernel{
		kernels.NewBMM(4, 512, 512, 512), kernels.NewBMM(16, 768, 768, 768),
		kernels.NewLinear(2048, 1024, 4096), kernels.NewLinear(512, 1024, 1024),
		kernels.NewSoftmax(64, 1024), kernels.NewLayerNorm(4096, 1024),
	}
}

// TestServeCalibratedRestart: a `serve -model -observe` process
// fine-tunes its loaded model on an H100 drift window without wrecking the
// GPUs nobody observed, saves the calibration over the model file, and a
// restart with the same flags serves the calibrated model bit for bit,
// with empty drift windows and no retrain at start-up.
func TestServeCalibratedRestart(t *testing.T) {
	modelPath, tilePath := trainModelFiles(t, t.TempDir())
	addr := freeAddr(t)
	args := []string{"-model", modelPath, "-tiles", tilePath, "-observe"}

	stop := startServe(t, addr, args...)
	trained := map[string][]float64{}
	for _, g := range gpu.All() {
		trained[g.Name] = predictBatch(t, addr, g.Name, restartProbes())
	}
	st := observeDrift(t, addr)
	if o := st.Observe; o.Retrains != 1 || o.RetrainErrors != 0 {
		t.Fatalf("retrains %d, retrain errors %d, want 1/0 (%+v)", o.Retrains, o.RetrainErrors, o.Windows)
	}
	before := map[string][]float64{}
	for _, g := range gpu.All() {
		before[g.Name] = predictBatch(t, addr, g.Name, restartProbes())
	}
	checkCalibration(t, trained, before)
	stop()

	startServe(t, addr, args...)
	if o := observeReport(t, addr).Observe; o.Ingested != 0 || o.Retrains != 0 || len(o.Windows) != 0 {
		t.Fatalf("restart drift report: ingested %d, retrains %d, %d windows; want all 0", o.Ingested, o.Retrains, len(o.Windows))
	}
	for _, g := range gpu.All() {
		after := predictBatch(t, addr, g.Name, restartProbes())
		for i, k := range restartProbes() {
			if math.Float64bits(after[i]) != math.Float64bits(before[g.Name][i]) {
				t.Errorf("%s on %s: %v after the restart, %v before it", k.Label(), g.Name, after[i], before[g.Name][i])
			}
		}
	}
	if o := observeReport(t, addr).Observe; o.Retrains != 0 {
		t.Fatalf("the restarted process retrained %d times", o.Retrains)
	}
}

// checkCalibration compares restartProbes() answers per GPU from before
// (was) and after (now) the H100 BMM drift window: H100's BMM probes move
// up toward the 3x observations, categories the window did not touch
// answer bit-identically on every GPU, and no BMM probe on a GPU nobody
// observed moves by the window's factor of 3 or more. The calibration
// fine-tunes one MLP shared by all GPUs, so the unobserved ones do move;
// a retrain on the window alone moved them up to 35x.
func checkCalibration(t *testing.T, was, now map[string][]float64) {
	t.Helper()
	for _, g := range gpu.All() {
		for i, k := range restartProbes() {
			w, n := was[g.Name][i], now[g.Name][i]
			switch {
			case k.Category() != kernels.CatBMM:
				if math.Float64bits(n) != math.Float64bits(w) {
					t.Errorf("%s on %s moved %v -> %v; the window held no %v kernel", k.Label(), g.Name, w, n, k.Category())
				}
			case g.Name == "H100":
				if !(n > w) {
					t.Errorf("%s on H100 moved %v -> %v, not up toward the 3x observations", k.Label(), w, n)
				}
			default:
				if r := n / w; !(r > 1.0/3 && r < 3) {
					t.Errorf("%s on unobserved %s moved %v -> %v (x%.2f)", k.Label(), g.Name, w, n, r)
				}
			}
		}
	}
}

// TestServeCalibrationSaveFailure: when the calibrated model cannot be
// saved, the retrain counts as an error naming the model path while the
// calibrated version it published keeps serving. The drift windows still
// reset, so the next drifting observations start a new window instead of
// another retrain that would fail the same way.
func TestServeCalibrationSaveFailure(t *testing.T) {
	modelPath, tilePath := trainModelFiles(t, t.TempDir())
	addr := freeAddr(t)
	startServe(t, addr, "-model", modelPath, "-tiles", tilePath, "-observe")

	probe := []kernels.Kernel{kernels.NewBMM(4, 512, 512, 512)}
	was := predictBatch(t, addr, "H100", probe)[0]
	if err := os.RemoveAll(filepath.Dir(modelPath)); err != nil {
		t.Fatal(err)
	}
	st := observeDrift(t, addr)
	o := st.Observe
	if o.Retrains != 0 || o.RetrainErrors != 1 {
		t.Fatalf("retrains %d, retrain errors %d, want 0/1", o.Retrains, o.RetrainErrors)
	}
	if len(o.Windows) != 1 || o.Windows[0].Samples != 0 {
		t.Fatalf("windows %+v, want the one H100 window reset", o.Windows)
	}
	if msg := o.Windows[0].LastError; !strings.Contains(msg, modelPath) {
		t.Fatalf("window last_error %q does not name %s", msg, modelPath)
	}
	if now := predictBatch(t, addr, "H100", probe)[0]; now == was {
		t.Fatalf("forecast %v did not move after the calibration", now)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if want := "neusight_observe_retrain_errors_total 1\n"; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics lacks %q", strings.TrimSpace(want))
	}

	// One short of a window of further drift: no retrain starts.
	postDrift(t, addr, driftWindow()[1:])
	o = observeReport(t, addr).Observe
	if o.RetrainActive || o.Retrains != 0 || o.RetrainErrors != 1 {
		t.Fatalf("after more drift: retrain active %v, retrains %d, errors %d; want false/0/1", o.RetrainActive, o.Retrains, o.RetrainErrors)
	}
	if n := len(driftWindow()) - 1; o.Windows[0].Samples != n {
		t.Fatalf("window holds %d samples, want the %d new ones", o.Windows[0].Samples, n)
	}
}
