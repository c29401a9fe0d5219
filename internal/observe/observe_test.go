package observe

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/promtext"
)

// flatPredict always predicts 1ms — drift is then entirely in the
// observations the test feeds.
func flatPredict(context.Context, string, kernels.Kernel, gpu.Spec) (float64, error) {
	return 1.0, nil
}

func testMonitor(cfg Config) *Monitor { return NewMonitor(cfg, flatPredict) }

func ingestN(t *testing.T, m *Monitor, engine string, n int, observedMs float64) {
	t.Helper()
	g := gpu.MustLookup("H100")
	for i := 0; i < n; i++ {
		k := kernels.NewBMM(1, 64+i, 64, 64)
		if err := m.Ingest(context.Background(), engine, k, g, observedMs); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
}

func TestMonitorTracksDriftBeforeMinSamples(t *testing.T) {
	m := testMonitor(Config{Window: 8, MinSamples: 4, Threshold: 0.5})
	defer m.Close()
	// One wildly-off observation: drifting must already show on the
	// report (operators watch drift long before the retrain bar is met).
	ingestN(t, m, "neusight", 1, 10)
	rep := m.Report()
	if len(rep.Windows) != 1 {
		t.Fatalf("%d windows, want 1", len(rep.Windows))
	}
	w := rep.Windows[0]
	if w.Engine != "neusight" || w.GPU != "H100" || w.Samples != 1 {
		t.Fatalf("window = %+v", w)
	}
	if want := 0.9; math.Abs(w.MAPE-want) > 1e-9 {
		t.Fatalf("MAPE = %v, want %v", w.MAPE, want)
	}
	if !w.Drifting {
		t.Fatal("MAPE 0.9 over threshold 0.5 must report drifting")
	}
	if rep.Retrains != 0 {
		t.Fatal("one sample under MinSamples must not retrain")
	}
}

func TestMonitorRetrainSingleFlight(t *testing.T) {
	m := testMonitor(Config{Window: 16, MinSamples: 4, Threshold: 0.5})
	started := make(chan []dataset.Sample, 1)
	release := make(chan struct{})
	calls := 0
	m.RegisterRetrainer("neusight", func(calib []dataset.Sample) (uint64, error) {
		calls++
		started <- calib
		<-release
		return 7, nil
	})

	ingestN(t, m, "neusight", 4, 10) // MAPE 0.9 > 0.5 with MinSamples met
	calib := <-started
	if len(calib) != 4 {
		t.Fatalf("calibration set has %d samples, want 4", len(calib))
	}
	for _, s := range calib {
		if s.Latency != 10 {
			t.Fatalf("calibration latency %v, want the observed 10", s.Latency)
		}
	}
	if !m.Report().RetrainActive {
		t.Fatal("retrain in flight must report active")
	}

	// More drifting observations while the worker is blocked: single-flight
	// means no second retrain is scheduled.
	ingestN(t, m, "neusight", 8, 10)
	close(release)
	m.Close()
	if calls != 1 {
		t.Fatalf("retrainer ran %d times, want 1 (single-flight)", calls)
	}

	rep := m.Report()
	if rep.Retrains != 1 || rep.RetrainActive {
		t.Fatalf("report retrains=%d active=%v, want 1/false", rep.Retrains, rep.RetrainActive)
	}
	w := rep.Windows[0]
	if w.Samples != 0 {
		t.Fatalf("window holds %d samples after retrain, want 0 (reset against the new model)", w.Samples)
	}
	if w.Retrains != 1 || w.LastRetrainGeneration != 7 {
		t.Fatalf("window retrains=%d gen=%d, want 1/7", w.Retrains, w.LastRetrainGeneration)
	}
	if !w.Retrainable {
		t.Fatal("engine with a registered retrainer must report retrainable")
	}
}

// Engines without a retrainer — roofline, gpusim, any engine that has no
// trainable state — accept observations and report drift but never
// schedule a retrain, no matter how far past the threshold they go.
func TestMonitorAlertOnlyWithoutRetrainer(t *testing.T) {
	m := testMonitor(Config{Window: 8, MinSamples: 2, Threshold: 0.1})
	ingestN(t, m, "roofline", 8, 50) // far past both bars
	rep := m.Report()
	w := rep.Windows[0]
	if !w.Drifting {
		t.Fatal("alert-only engine must still report drift")
	}
	if w.Retrainable {
		t.Fatal("engine without a retrainer must report retrainable=false")
	}
	if rep.Retrains != 0 || rep.RetrainActive || w.Retrains != 0 {
		t.Fatalf("alert-only engine scheduled a retrain: %+v", rep)
	}
	// Close waits on the worker waitgroup: if a goroutine leaked, this
	// hangs and the test times out.
	m.Close()
}

func TestMonitorBelowThresholdNeverRetrains(t *testing.T) {
	m := testMonitor(Config{Window: 8, MinSamples: 2, Threshold: 0.5})
	defer m.Close()
	m.RegisterRetrainer("neusight", func([]dataset.Sample) (uint64, error) {
		t.Error("retrain fired below threshold")
		return 0, nil
	})
	ingestN(t, m, "neusight", 8, 1.2) // MAPE ~0.17 < 0.5
	rep := m.Report()
	if rep.Windows[0].Drifting || rep.Retrains != 0 {
		t.Fatalf("in-tolerance window misreported: %+v", rep.Windows[0])
	}
}

func TestMonitorRejectsBadObservations(t *testing.T) {
	failingPredict := func(_ context.Context, engine string, _ kernels.Kernel, _ gpu.Spec) (float64, error) {
		if engine == "broken" {
			return 0, fmt.Errorf("no such engine")
		}
		return 1.0, nil
	}
	m := NewMonitor(Config{}, failingPredict)
	defer m.Close()
	g := gpu.MustLookup("H100")
	k := kernels.NewBMM(1, 64, 64, 64)
	ctx := context.Background()
	for _, tc := range []struct {
		engine string
		ms     float64
	}{
		{"", 1},                   // unresolved engine
		{"neusight", 0},           // non-positive
		{"neusight", -3},          // negative
		{"neusight", math.Inf(1)}, // non-finite
		{"broken", 1},             // prediction fails
	} {
		if err := m.Ingest(ctx, tc.engine, k, g, tc.ms); err == nil {
			t.Fatalf("engine=%q ms=%v accepted, want rejection", tc.engine, tc.ms)
		}
	}
	rep := m.Report()
	if rep.Rejected != 5 || rep.Ingested != 0 {
		t.Fatalf("rejected=%d ingested=%d, want 5/0", rep.Rejected, rep.Ingested)
	}
}

func TestMonitorRetrainErrorReported(t *testing.T) {
	m := testMonitor(Config{Window: 8, MinSamples: 2, Threshold: 0.5})
	m.RegisterRetrainer("neusight", func([]dataset.Sample) (uint64, error) {
		return 0, fmt.Errorf("category has no samples")
	})
	ingestN(t, m, "neusight", 2, 10)
	m.Close()
	rep := m.Report()
	if rep.RetrainErrors != 1 || rep.Retrains != 0 {
		t.Fatalf("retrain errors=%d retrains=%d, want 1/0", rep.RetrainErrors, rep.Retrains)
	}
	w := rep.Windows[0]
	if !strings.Contains(w.LastError, "no samples") {
		t.Fatalf("window last_error = %q, want the retrain failure", w.LastError)
	}
	if w.Samples == 0 {
		t.Fatal("a failed retrain must not clear the window")
	}
}

// TestMonitorPublishedRetrainErrorResetsWindows: a retrainer that
// published a model and then failed (its save did) is counted as an
// error, yet resets the windows like a success — the next drifting
// observations refill a window instead of each starting a retrain.
func TestMonitorPublishedRetrainErrorResetsWindows(t *testing.T) {
	m := testMonitor(Config{Window: 8, MinSamples: 2, Threshold: 0.5})
	calls := 0
	m.RegisterRetrainer("neusight", func([]dataset.Sample) (uint64, error) {
		calls++
		return 9, fmt.Errorf("save model.json: no space left on device")
	})
	ingestN(t, m, "neusight", 2, 10)
	for m.Report().RetrainActive {
		time.Sleep(time.Millisecond)
	}
	rep := m.Report()
	if rep.RetrainErrors != 1 || rep.Retrains != 0 {
		t.Fatalf("retrain errors=%d retrains=%d, want 1/0", rep.RetrainErrors, rep.Retrains)
	}
	w := rep.Windows[0]
	if w.Samples != 0 || w.LastRetrainGeneration != 9 || !strings.Contains(w.LastError, "no space") {
		t.Fatalf("window %+v, want it reset at generation 9 with the save error", w)
	}
	ingestN(t, m, "neusight", 1, 10) // one short of MinSamples after the reset
	m.Close()
	if calls != 1 {
		t.Fatalf("retrainer ran %d times, want 1", calls)
	}
}

func TestWindowRingEviction(t *testing.T) {
	m := testMonitor(Config{Window: 4, MinSamples: 4, Threshold: 100}) // threshold high: no retrain
	defer m.Close()
	ingestN(t, m, "neusight", 10, 2)
	rep := m.Report()
	w := rep.Windows[0]
	if w.Samples != 4 {
		t.Fatalf("window holds %d, want ring cap 4", w.Samples)
	}
	if w.Total != 10 {
		t.Fatalf("window total %d, want 10", w.Total)
	}
	if rep.Ingested != 10 {
		t.Fatalf("ingested %d, want 10", rep.Ingested)
	}
}

func TestWriteMetrics(t *testing.T) {
	m := testMonitor(Config{Window: 8, MinSamples: 2, Threshold: 0.5})
	defer m.Close()
	ingestN(t, m, "neusight", 3, 10)
	rep := m.Report()
	var b strings.Builder
	WriteMetrics(promtext.NewWriter(&b), &rep)
	out := b.String()
	for _, want := range []string{
		"neusight_observe_ingested_total 3",
		"neusight_observe_drift_threshold 0.5",
		`neusight_observe_mape{engine="neusight",gpu="H100"}`,
		`neusight_observe_drifting{engine="neusight",gpu="H100"} 1`,
		`neusight_observe_retrainable{engine="neusight",gpu="H100"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
	var none strings.Builder
	WriteMetrics(promtext.NewWriter(&none), nil)
	if none.Len() != 0 {
		t.Fatalf("nil report exported %q, want nothing", none.String())
	}
}
