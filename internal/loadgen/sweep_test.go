package loadgen

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"neusight/internal/serve"
)

func TestSLOCheck(t *testing.T) {
	cases := []struct {
		name string
		slo  SLO
		step StepResult
		ok   bool
	}{
		{"empty_slo_passes", SLO{}, StepResult{P99Ms: 1e6, ErrorRate: 1}, true},
		{"p99_under", SLO{P99Ms: 10}, StepResult{P99Ms: 9.9}, true},
		{"p99_over", SLO{P99Ms: 10}, StepResult{P99Ms: 10.1}, false},
		{"errors_under", SLO{MaxErrorRate: 0.01}, StepResult{ErrorRate: 0.009}, true},
		{"errors_over", SLO{MaxErrorRate: 0.01}, StepResult{ErrorRate: 0.02}, false},
		{"either_breaches", SLO{P99Ms: 10, MaxErrorRate: 0.01}, StepResult{P99Ms: 1, ErrorRate: 0.5}, false},
	}
	for _, tc := range cases {
		ok, reason := tc.slo.Check(tc.step)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v want %v", tc.name, ok, tc.ok)
		}
		if !ok && reason == "" {
			t.Errorf("%s: breach without a reason", tc.name)
		}
	}
}

// TestSweepFindsKnee runs a real stepped sweep against a live sharded
// service whose capacity is engineered to sit between the two steps: the
// first step's rate is comfortably sustainable, the second is an order of
// magnitude past saturation, so the SLO breach — and therefore the knee —
// is structural rather than timing-sensitive.
func TestSweepFindsKnee(t *testing.T) {
	_, tgt := newServedTarget(t, slowEngine("slow", 5*time.Millisecond), serve.Config{
		CacheSize:  -1,
		Shards:     2,
		Workers:    2, // one per shard
		ShardQueue: 1,
	})
	cfg := SweepConfig{
		Start:        20,
		Step:         2980,
		Max:          3000,
		StepDuration: 500 * time.Millisecond,
		SLO:          SLO{MaxErrorRate: 0.2},
		Run: RunConfig{
			Arrival:  ArrivalSpec{Seed: 17},
			Scenario: kernelOnlyMix(t, []string{"H100", "V100"}),
		},
	}
	res, err := Sweep(context.Background(), tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("ran %d steps, want 2 (pass then breach)", len(res.Steps))
	}
	if !res.Breached || res.BreachReason == "" {
		t.Fatalf("breached=%v reason=%q; the 3000/s step must breach a 2-shard queue-1 service", res.Breached, res.BreachReason)
	}
	if res.Knee == nil {
		t.Fatal("no knee recorded despite a passing first step")
	}
	if res.Knee.OfferedRate != 20 {
		t.Errorf("knee at %g/s, want the passing 20/s step", res.Knee.OfferedRate)
	}
	if last := res.Steps[1]; last.ErrorRate <= 0.2 {
		t.Errorf("breaching step error rate %.3f, expected > 0.2", last.ErrorRate)
	}

	// A sweep that starts past saturation must report breach-with-no-knee.
	cfg.Start, cfg.Step, cfg.Max = 3000, 1000, 3000
	res, err = Sweep(context.Background(), tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Breached || res.Knee != nil || len(res.Steps) != 1 {
		t.Errorf("first-step breach: breached=%v knee=%v steps=%d; want true/nil/1",
			res.Breached, res.Knee, len(res.Steps))
	}
}

func TestSweepValidation(t *testing.T) {
	tgt := NewTarget("http://127.0.0.1:0", 1)
	for _, cfg := range []SweepConfig{
		{Start: 0, Step: 10, Max: 100},
		{Start: 10, Step: 0, Max: 100},
		{Start: 100, Step: 10, Max: 50},
	} {
		if _, err := Sweep(context.Background(), tgt, cfg); err == nil {
			t.Errorf("sweep config %+v: expected validation error", cfg)
		}
	}
}

// TestReportRoundTrip pins the report schema: the JSON document survives a
// marshal/unmarshal cycle with its discriminator and knee intact, which is
// what report consumers (the scripts/check.sh smoke sweeps) parse.
func TestReportRoundTrip(t *testing.T) {
	in := Report{
		Kind:     ReportKind,
		Target:   "http://127.0.0.1:9999",
		Scenario: "mix(kernel=1.0)",
		Arrival:  ArrivalSpec{Process: ArrivalBursty, On: 20 * time.Millisecond, Off: 80 * time.Millisecond, Seed: 42},
		SLO:      &SLO{P99Ms: 50, MaxErrorRate: 0.01},
		Sweep: &SweepResult{
			Steps: []StepResult{
				{OfferedRate: 100, AchievedRate: 99.5, Sent: 200, Succeeded: 200, P50Ms: 1.023, P99Ms: 2.047, P999Ms: 2.047},
				{OfferedRate: 200, AchievedRate: 150, Sent: 400, Succeeded: 300, Rejected: 100, ErrorRate: 0.25, P99Ms: 90},
			},
			Knee:         &Knee{OfferedRate: 100, AchievedRate: 99.5, P50Ms: 1.023, P99Ms: 2.047, P999Ms: 2.047},
			Breached:     true,
			BreachReason: "error rate 0.2500 exceeds SLO 0.0100",
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
	if out.Sweep == nil || out.Sweep.Knee == nil {
		t.Fatal("sweep/knee lost in round trip")
	}
	if *out.Sweep.Knee != *in.Sweep.Knee {
		t.Errorf("knee changed: %+v -> %+v", *in.Sweep.Knee, *out.Sweep.Knee)
	}
	if len(out.Sweep.Steps) != 2 || out.Sweep.Steps[1].Rejected != 100 {
		t.Errorf("steps lost in round trip: %+v", out.Sweep.Steps)
	}
	if out.Arrival != in.Arrival {
		t.Errorf("arrival spec changed: %+v -> %+v", in.Arrival, out.Arrival)
	}
}
