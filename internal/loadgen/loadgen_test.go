package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// newServedTarget starts a live in-process serve.Service over httptest
// and returns both: the loadgen target drives the real HTTP surface, and
// the raw service lets tests cross-check the counters behind it.
func newServedTarget(t *testing.T, eng predict.Engine, cfg serve.Config) (*serve.Service, *Target) {
	t.Helper()
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	svc := serve.NewMulti(reg, eng.Name(), cfg)
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(ts.Close)
	tgt := NewTarget(ts.URL, 512)
	t.Cleanup(tgt.Client.CloseIdleConnections)
	return svc, tgt
}

// kernelOnlyMix is the scenario the exact-agreement tests use: every
// request is one kernel forecast, so one 2xx response corresponds to
// exactly one server-side request-counter increment.
func kernelOnlyMix(t *testing.T, gpus []string) *Scenario {
	t.Helper()
	sc, err := NewMix(MixConfig{
		KernelWeight: 1,
		Models:       []string{"BERT-Large"},
		GPUs:         gpus,
		PoolSize:     256,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunStatsAgreement pins the harness's accounting against the
// service's own: after a run against a live in-process service, the
// client-side sent/succeeded/rejected counts must match the /v2/stats
// delta exactly — no lost requests, no double counting.
func TestRunStatsAgreement(t *testing.T) {
	eng := predict.NewRooflineEngine()
	_, tgt := newServedTarget(t, eng, serve.Config{CacheSize: 1024})
	res, err := Run(context.Background(), tgt, RunConfig{
		Rate:     1500,
		Duration: 800 * time.Millisecond,
		Arrival:  ArrivalSpec{Seed: 3},
		Scenario: kernelOnlyMix(t, []string{"H100", "V100"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d requests client-side; cap too low for this rate", res.Dropped)
	}
	if got := res.Succeeded + res.Rejected + res.Errored; got != res.Sent {
		t.Errorf("outcome partition %d+%d+%d = %d != sent %d",
			res.Succeeded, res.Rejected, res.Errored, got, res.Sent)
	}
	if res.Errored != 0 {
		t.Errorf("errored = %d, want 0 against a local roofline service", res.Errored)
	}
	if res.Server == nil {
		t.Fatal("no server-side stats delta recorded")
	}
	if res.Server.Requests != res.Succeeded {
		t.Errorf("server requests delta %d != client succeeded %d", res.Server.Requests, res.Succeeded)
	}
	if res.Server.Rejected != res.Rejected {
		t.Errorf("server rejected delta %d != client rejected %d", res.Server.Rejected, res.Rejected)
	}
	if res.Succeeded > 0 && res.P50Ms <= 0 {
		t.Errorf("p50 = %g with %d successes", res.P50Ms, res.Succeeded)
	}
	if res.AchievedRate <= 0 {
		t.Errorf("achieved rate = %g", res.AchievedRate)
	}
}

// slowEngine returns an engine that sleeps per prediction — a stand-in
// for an expensive backend, making saturation reachable at low rates.
func slowEngine(name string, d time.Duration) predict.Engine {
	return predict.NewFuncEngine(name, predict.SourceAnalytical,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) {
			time.Sleep(d)
			return 0.5, nil
		})
}

// TestSaturatedShardedAgreement drives a service with a queue bound of one
// past saturation and asserts 503s are counted identically on both sides
// and no request is double-counted. Caching is disabled so every admitted
// request costs real backend time — with it on, the steady state would be
// all cache hits and the service would never saturate. Run under -race via
// the package's race gate.
func TestSaturatedShardedAgreement(t *testing.T) {
	_, tgt := newServedTarget(t, slowEngine("slow", 3*time.Millisecond), serve.Config{
		CacheSize: -1,
		Workers:   4,
		Queue:     1,
	})
	res, err := Run(context.Background(), tgt, RunConfig{
		Rate:     2500,
		Duration: 600 * time.Millisecond,
		Arrival:  ArrivalSpec{Seed: 5},
		Scenario: kernelOnlyMix(t, []string{"H100", "V100", "A100-40GB", "P100"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("expected 503 rejections past capacity with queue 1")
	}
	if res.Succeeded == 0 {
		t.Fatal("expected some successes between rejections")
	}
	if got := res.Succeeded + res.Rejected + res.Errored; got != res.Sent {
		t.Errorf("outcome partition %d+%d+%d = %d != sent %d",
			res.Succeeded, res.Rejected, res.Errored, got, res.Sent)
	}
	if res.Errored != 0 {
		t.Errorf("errored = %d, want 0 (rejections must be 503s, not errors)", res.Errored)
	}
	if res.Server == nil {
		t.Fatal("no server-side stats delta recorded")
	}
	if res.Server.Rejected != res.Rejected {
		t.Errorf("server rejected delta %d != client 503 count %d — 503s double- or under-counted",
			res.Server.Rejected, res.Rejected)
	}
	if res.Server.Requests != res.Succeeded {
		t.Errorf("server requests delta %d != client succeeded %d — admitted requests double- or under-counted",
			res.Server.Requests, res.Succeeded)
	}
	if res.ErrorRate <= 0 {
		t.Errorf("error rate = %g with %d rejections", res.ErrorRate, res.Rejected)
	}
}

// TestRunStatsFetchBounded: a target whose /v2/stats endpoint hangs (but
// whose predict endpoints answer) must not hang Run — the step completes
// with Server == nil.
func TestRunStatsFetchBounded(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := serve.NewMulti(reg, predict.EngineRoofline, serve.Config{CacheSize: 256})
	inner := serve.NewHandler(svc)
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/stats", func(w http.ResponseWriter, r *http.Request) { <-hang })
	mux.Handle("/", inner)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	tgt := NewTarget("http://"+ln.Addr().String(), 64)
	t.Cleanup(tgt.Client.CloseIdleConnections)
	start := time.Now()
	res, err := Run(context.Background(), tgt, RunConfig{
		Rate:     300,
		Duration: 300 * time.Millisecond,
		Arrival:  ArrivalSpec{Seed: 7},
		Scenario: kernelOnlyMix(t, []string{"H100"}),
		Timeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("run took %v against a hanging stats endpoint", elapsed)
	}
	if res.Server != nil {
		t.Error("got a server delta from a stats endpoint that never answered")
	}
	if res.Succeeded == 0 {
		t.Error("predict requests should have succeeded despite the hung stats endpoint")
	}
}

func TestRunValidation(t *testing.T) {
	tgt := NewTarget("http://127.0.0.1:0", 1)
	sc := kernelOnlyMix(t, []string{"H100"})
	ctx := context.Background()
	if _, err := Run(ctx, nil, RunConfig{Rate: 1, Duration: time.Second, Scenario: sc}); err == nil {
		t.Error("nil target must error")
	}
	if _, err := Run(ctx, tgt, RunConfig{Rate: 1, Duration: time.Second}); err == nil {
		t.Error("nil scenario must error")
	}
	if _, err := Run(ctx, tgt, RunConfig{Rate: 1, Scenario: sc}); err == nil {
		t.Error("zero duration must error")
	}
	if _, err := Run(ctx, tgt, RunConfig{Rate: 0, Duration: time.Second, Scenario: sc}); err == nil {
		t.Error("zero rate must error")
	}
}

func TestNewMixDeterministicAndShaped(t *testing.T) {
	cfg := MixConfig{
		KernelWeight: 0.6, BatchWeight: 0.3, GraphWeight: 0.1,
		Models: []string{"BERT-Large"}, GPUs: []string{"H100"},
		BatchSize: 8, PoolSize: 400, Seed: 21,
	}
	s1, err := NewMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 400 || s2.Len() != 400 {
		t.Fatalf("pool sizes %d/%d, want 400", s1.Len(), s2.Len())
	}
	counts := map[Kind]int{}
	for i := uint64(0); i < uint64(s1.Len()); i++ {
		r1, r2 := s1.Request(i), s2.Request(i)
		if r1.Kind != r2.Kind || r1.Path != r2.Path || !bytes.Equal(r1.Body, r2.Body) {
			t.Fatalf("request %d differs across same-seed builds", i)
		}
		counts[r1.Kind]++
	}
	// With weights 6:3:1 over 400 draws every kind must appear, kernels
	// dominating.
	if counts[KindKernel] == 0 || counts[KindBatch] == 0 || counts[KindGraph] == 0 {
		t.Fatalf("kind counts %v: every weighted kind must appear", counts)
	}
	if counts[KindKernel] <= counts[KindBatch] || counts[KindBatch] <= counts[KindGraph] {
		t.Errorf("kind counts %v out of 6:3:1 order", counts)
	}

	if _, err := NewMix(MixConfig{Models: []string{"no-such-model"}, GPUs: []string{"H100"}}); err == nil {
		t.Error("unknown model must error")
	}
	if _, err := NewMix(MixConfig{Models: []string{"BERT-Large"}, GPUs: []string{"no-such-gpu"}}); err == nil {
		t.Error("unknown GPU must error")
	}
	if _, err := NewMix(MixConfig{GPUs: []string{"H100"}}); err == nil {
		t.Error("empty model list must error")
	}
}

// TestNewMixPoolPinned pins the request pool the frozen benchmark's
// serve_paced workload draws (bench/universe.go pacedPool: 0.5/0.3/0.2 over
// BERT-Large and GPT2-Large on H100 and V100): the hash of every entry's
// Kind, Path, Body and GPU. A change to NewMix that moves it changes what
// the benchmark measures, so it is a benchmark change, not a new hash here.
func TestNewMixPoolPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		7:  "6e74d54c092643def92ce6663086afd7fdd453503fb879d781a80dc0bff3afb2",
		11: "58172095c9f581678133462941a31b5d9cb9dde32d30288bddac3253fd758877",
	} {
		sc, err := NewMix(MixConfig{
			KernelWeight: 0.5, BatchWeight: 0.3, GraphWeight: 0.2,
			Models: []string{"BERT-Large", "GPT2-Large"}, GPUs: []string{"H100", "V100"},
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := 0; i < sc.Len(); i++ {
			r := sc.Request(uint64(i))
			fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s\n", r.Kind, r.Path, r.Body, r.GPU)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("seed %d: pool of %d hashes to %s, want %s", seed, sc.Len(), got, want)
		}
	}
}

func TestNewTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	lines := []string{
		`{"engine":"alpha","gpu":"V100","op":"bmm","b":1,"m":32,"k":32,"n":32}`,
		`not json at all`,
		`{"engine":"alpha","gpu":"V100","op":"transpose","b":4,"m":64}`, // not API-expressible
		`{"engine":"alpha","gpu":"H100","op":"softmax","b":16,"m":128}`,
		``,
	}
	if err := os.WriteFile(path, []byte(joinLines(lines)), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, skipped, err := NewTraceReplay(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 || skipped != 2 {
		t.Fatalf("replay pool %d entries, %d skipped; want 2 and 2", sc.Len(), skipped)
	}

	// The replayed requests must be servable: drive them at a fixed rate
	// against a live service.
	eng := predict.NewFuncEngine("alpha", predict.SourceAnalytical,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) { return 1, nil })
	_, tgt := newServedTarget(t, eng, serve.Config{CacheSize: 64})
	res, err := Run(context.Background(), tgt, RunConfig{
		Rate:     500,
		Duration: 200 * time.Millisecond,
		Arrival:  ArrivalSpec{Seed: 1},
		Scenario: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded == 0 || res.Errored != 0 {
		t.Errorf("trace replay run: %d succeeded, %d errored; want all success", res.Succeeded, res.Errored)
	}

	if _, _, err := NewTraceReplay(filepath.Join(dir, "missing.jsonl"), ""); err == nil {
		t.Error("missing trace must error")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewTraceReplay(empty, ""); err == nil {
		t.Error("trace with no replayable entries must error")
	}
}

// TestNewTraceReplaySkipsFusedKernels: a fused trace entry names a kernel
// the kernel API cannot express. Sent as the plain kernel of the same op
// and dimensions, it would ask a different question than the one served,
// so the replay skips it and counts it.
func TestNewTraceReplaySkipsFusedKernels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	lines := []string{
		`{"engine":"alpha","gpu":"V100","op":"linear","b":1,"m":32,"k":64,"n":64,"fused":true,"fused_flops":300000,"fused_bytes":40000,"fused_ops":["ew_relu"]}`,
		`{"engine":"alpha","gpu":"V100","op":"linear","b":1,"m":32,"k":64,"n":64}`,
	}
	if err := os.WriteFile(path, []byte(joinLines(lines)), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, skipped, err := NewTraceReplay(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 1 || skipped != 1 {
		t.Fatalf("replay pool %d entries, %d skipped; want the plain entry alone and the fused one skipped", sc.Len(), skipped)
	}
}

// TestNewTraceReplaySkipsOverlongLine: one line past any sane entry size
// costs that line, as it does in warmup, not the whole replay.
func TestNewTraceReplaySkipsOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	lines := []string{
		`{"engine":"alpha","gpu":"V100","op":"bmm","b":1,"m":32,"k":32,"n":32}`,
		`{"engine":"alpha","gpu":"V100","op":"bmm","pad":"` + strings.Repeat("x", 1<<20+1) + `"}`,
		`{"engine":"alpha","gpu":"H100","op":"softmax","b":16,"m":128}`,
	}
	if err := os.WriteFile(path, []byte(joinLines(lines)), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, skipped, err := NewTraceReplay(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 || skipped != 1 {
		t.Fatalf("replay pool %d entries, %d skipped; want 2 and 1", sc.Len(), skipped)
	}
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// TestReportRoundTrip pins the report schema: the JSON document survives a
// marshal/unmarshal cycle with its discriminator and run intact, which is
// what report consumers (the scripts/check.sh smoke run) parse.
func TestReportRoundTrip(t *testing.T) {
	in := Report{
		Kind:     ReportKind,
		Target:   "http://127.0.0.1:9999",
		Scenario: "mix(kernel=1.0)",
		Arrival:  ArrivalSpec{Process: ArrivalBursty, On: 20 * time.Millisecond, Off: 80 * time.Millisecond, Seed: 42},
		Run: &StepResult{
			OfferedRate: 200, AchievedRate: 150, Sent: 400, Succeeded: 300, Rejected: 100,
			ErrorRate: 0.25, P50Ms: 1.023, P99Ms: 90, P999Ms: 90,
			Server: &ServerDelta{Requests: 300, Rejected: 100},
		},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != ReportKind {
		t.Errorf("kind %q, want %q", out.Kind, ReportKind)
	}
	if out.Run == nil || out.Run.Server == nil {
		t.Fatal("run/server delta lost in round trip")
	}
	if *out.Run.Server != *in.Run.Server {
		t.Errorf("server delta changed: %+v -> %+v", *in.Run.Server, *out.Run.Server)
	}
	out.Run.Server, in.Run.Server = nil, nil
	if *out.Run != *in.Run {
		t.Errorf("run changed: %+v -> %+v", *in.Run, *out.Run)
	}
	if out.Arrival != in.Arrival {
		t.Errorf("arrival spec changed: %+v -> %+v", in.Arrival, out.Arrival)
	}
}
