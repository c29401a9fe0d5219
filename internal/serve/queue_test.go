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
	"sync/atomic"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// countingEngine builds a func engine that counts backend evaluations.
func countingEngine(name string, lat float64, calls *atomic.Int64) predict.Engine {
	return predict.NewFuncEngine(name, predict.SourceAnalytical,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) {
			calls.Add(1)
			return lat, nil
		})
}

// TestShardedBatchAndGraphPaths pins in-batch deduplication and the warm
// cache on the batch path of the default layout.
func TestShardedBatchAndGraphPaths(t *testing.T) {
	var calls atomic.Int64
	reg := predict.NewRegistry()
	reg.MustRegister(countingEngine("alpha", 1, &calls))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 64})
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{
		kernels.NewBMM(2, 64, 64, 64),
		kernels.NewLinear(64, 128, 128),
		kernels.NewBMM(2, 64, 64, 64), // in-batch duplicate
	}

	outs, err := svc.PredictBatchEngine(context.Background(), "", ks, g)
	if err != nil {
		t.Fatalf("PredictBatchEngine: %v", err)
	}
	for i, out := range outs {
		if out.Err != nil || out.Result.Latency != 1 {
			t.Fatalf("outs[%d] = %+v, want latency 1", i, out)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2 (in-batch duplicates must share one evaluation)", got)
	}

	// The same keys again: all hits, no new backend work.
	if _, err := svc.PredictBatchEngine(context.Background(), "", ks, g); err != nil {
		t.Fatalf("second batch: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend calls after warm batch = %d, want 2", got)
	}
}

// TestShardBackpressure pins the queue bound on every entrance: past it,
// kernel, batch and graph requests reject whole with ErrSaturated, and
// only the admitted request counts.
func TestShardBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewFuncEngine("slow", "test",
		func(k kernels.Kernel, g gpu.Spec) (float64, error) {
			started <- struct{}{}
			<-gate
			return 1, nil
		}))
	svc := NewMulti(reg, "slow", Config{CacheSize: 64, Workers: 8, Queue: 1})
	g := gpu.MustLookup("V100")
	ctx := context.Background()

	// Occupy the single in-flight slot.
	done := make(chan error, 1)
	go func() {
		_, err := svc.PredictKernelEngine(ctx, "", kernels.NewBMM(1, 32, 32, 32), g)
		done <- err
	}()
	<-started

	// The service is saturated: a second, different kernel must be rejected
	// immediately rather than queue.
	_, err := svc.PredictKernelEngine(ctx, "", kernels.NewLinear(8, 16, 16), g)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated service error = %v, want ErrSaturated", err)
	}

	// Batch and graph traffic on the saturated service reject as a whole —
	// a call-level error, never per-item fallbacks.
	if _, err := svc.PredictBatchEngine(ctx, "", []kernels.Kernel{kernels.NewLinear(8, 16, 16)}, g); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated batch error = %v, want ErrSaturated", err)
	}
	gr := graph.New("sat")
	gr.Add(kernels.NewLinear(8, 16, 16))
	if _, _, err := svc.PredictGraphEngine(ctx, "", gr, g); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated graph error = %v, want ErrSaturated (not a fallback-assembled total)", err)
	}

	st := svc.Stats()
	if st.Rejected != 3 {
		t.Errorf("Stats.Rejected = %d, want 3", st.Rejected)
	}
	// Rejections must not inflate request throughput or the latency
	// window: only the one admitted (still in-flight) request counts.
	if st.Requests != 1 {
		t.Errorf("Stats.Requests = %d, want 1 (rejected requests must not count)", st.Requests)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}

	// With the slot free again the service admits new work.
	if _, err := svc.PredictKernelEngine(ctx, "", kernels.NewLinear(8, 16, 16), g); err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
}

func TestSaturationMapsTo503(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewFuncEngine("slow", "test",
		func(k kernels.Kernel, g gpu.Spec) (float64, error) {
			started <- struct{}{}
			<-gate
			return 1, nil
		}))
	svc := NewMulti(reg, "slow", Config{CacheSize: 64, Queue: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer close(gate)

	go svc.PredictKernelEngine(context.Background(), "", kernels.NewBMM(1, 32, 32, 32), gpu.MustLookup("V100"))
	<-started

	resp, err := http.Post(ts.URL+"/v2/predict/kernel", "application/json",
		strings.NewReader(`{"op":"linear","m":8,"k":16,"n":16,"gpu":"V100"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated service HTTP status = %d, want 503", resp.StatusCode)
	}
}

// TestDefaultLayoutShedsPastQueueBound drives the default layout past its
// queue bound over HTTP: the excess is shed with 503 and counted as
// rejected, never as requests or latency samples, and the service answers
// again once load drops.
func TestDefaultLayoutShedsPastQueueBound(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewFuncEngine("slow", "test",
		func(k kernels.Kernel, g gpu.Spec) (float64, error) {
			started <- struct{}{}
			<-gate
			return 1, nil
		}))
	const bound, excess = 2, 5
	svc := NewMulti(reg, "slow", Config{Queue: bound})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	// Without a queue bound the excess requests would wait on the gate
	// forever; the timeout turns that into a failure.
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(m int) (int, string) {
		resp, err := client.Post(ts.URL+"/v2/predict/kernel", "application/json",
			strings.NewReader(fmt.Sprintf(`{"op":"linear","m":%d,"k":16,"n":16,"gpu":"V100"}`, m)))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Fill the bound with distinct kernels held in the backend.
	var held sync.WaitGroup
	for i := 0; i < bound; i++ {
		held.Add(1)
		go func(i int) {
			defer held.Done()
			if code, body := post(8 + i); code != http.StatusOK {
				t.Errorf("admitted request %d = %d %s, want 200", i, code, body)
			}
		}(i)
	}
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // also on a failed assertion, so ts.Close can return
	for i := 0; i < bound; i++ {
		<-started
	}

	for i := 0; i < excess; i++ {
		if code, body := post(100 + i); code != http.StatusServiceUnavailable || !strings.Contains(body, ErrSaturated.Error()) {
			t.Fatalf("request %d past the bound = %d %s, want 503 naming %q", i, code, body, ErrSaturated)
		}
	}
	if _, err := svc.PredictKernelEngine(context.Background(), "", kernels.NewLinear(200, 16, 16), gpu.MustLookup("V100")); !errors.Is(err, ErrSaturated) {
		t.Fatalf("in-process request past the bound = %v, want ErrSaturated", err)
	}

	resp, err := client.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsV2
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != excess+1 || st.Requests != bound || st.InFlight != bound {
		t.Errorf("rejected/requests/in_flight = %d/%d/%d, want %d/%d/%d (rejections are not requests)",
			st.Rejected, st.Requests, st.InFlight, excess+1, bound, bound)
	}
	if st.LatencyP50ms != 0 || st.LatencyP99ms != 0 {
		t.Errorf("latency p50/p99 = %v/%v with no admitted request finished, want 0/0 (rejections are not latency samples)",
			st.LatencyP50ms, st.LatencyP99ms)
	}

	release()
	held.Wait()
	if code, body := post(100); code != http.StatusOK {
		t.Errorf("request after the load dropped = %d %s, want 200", code, body)
	}
	if got := svc.Stats(); got.Requests != bound+1 || got.Rejected != excess+1 {
		t.Errorf("after drain requests/rejected = %d/%d, want %d/%d", got.Requests, got.Rejected, bound+1, excess+1)
	}
}

// TestShardRebalanceUnderConcurrentLoad hammers one service with two
// engines from many goroutines: each answer comes from the engine the
// request named, and the run stays race-free (run under -race).
func TestShardRebalanceUnderConcurrentLoad(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("alpha", 1))
	reg.MustRegister(constEngine("beta", 2))
	svc := NewMulti(reg, "alpha", Config{CacheSize: 256})
	gpus := []gpu.Spec{gpu.MustLookup("V100"), gpu.MustLookup("H100"), gpu.MustLookup("A100-40GB")}
	ctx := context.Background()

	const clients = 16
	const perClient = 200

	var failures atomic.Int64
	var clientWg sync.WaitGroup
	for c := 0; c < clients; c++ {
		clientWg.Add(1)
		go func(c int) {
			defer clientWg.Done()
			for i := 0; i < perClient; i++ {
				engine := ""
				if i%2 == 1 {
					engine = "beta"
				}
				k := kernels.NewBMM(1+i%4, 32, 32, 32)
				g := gpus[(c+i)%len(gpus)]
				res, err := svc.PredictKernelEngine(ctx, engine, k, g)
				if err != nil {
					failures.Add(1)
					continue
				}
				want := 1.0
				if engine == "beta" {
					want = 2
				}
				if res.Latency != want {
					t.Errorf("engine %q latency = %v, want %v", engine, res.Latency, want)
					return
				}
			}
		}(c)
	}

	clientWg.Wait()

	if failures.Load() > 0 {
		t.Errorf("requests failed under concurrent load: %d failures", failures.Load())
	}
}
