package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/promtext"
)

// The golden files under testdata/ were written by the commit before the
// shared log (internal/jsonl) and the shared exposition writer
// (internal/promtext) replaced the per-package copies, from the fixtures
// below. They pin that files written before still open to the same
// entries and that the bytes written for the same inputs did not move.

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden bytes\n got: %q\nwant: %q", name, got, want)
	}
}

// TestMetricsGolden renders every family the serving layer exports —
// aggregate, engine, warmup, observe (store and two windows) and
// plan — from a fixed fixture. An engine name with a quote and a
// backslash pins the label-quoting rule.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	p := promtext.NewWriter(&buf)
	WriteMetrics(p, Stats{
		Backend: "neusight", Requests: 1234567, GraphRequests: 89, BatchRequests: 40, BatchedKernels: 5000,
		CacheHits: 1000000, CacheMisses: 234000, CacheLen: 4096, HitRate: 0.81, Coalesced: 17, Deduped: 567,
		Errors: 3, Rejected: 2, InFlight: 5,
		LatencyP50ms: 0.125, LatencyP90ms: 1.5, LatencyP99ms: 12.75, UptimeSec: 3600.5,
	})
	WriteEngineMetrics(p, []EngineStats{
		{Engine: "neusight", Requests: 1200000, Errors: 1, Coalesced: 10, Deduped: 500, CacheHits: 990000, CacheMisses: 209500, CacheLen: 4000, Generation: 3},
		{Engine: `odd "name"\v2`, Requests: 34567, Errors: 2, Coalesced: 7, CacheHits: 10000, CacheMisses: 24500, CacheLen: 96, Generation: 1},
	})
	WriteWarmupMetrics(p, &WarmupStats{Source: "trace.jsonl", Entries: 2928, Warmed: 2900, Skipped: 4, Failed: 24, DurationMs: 812.25})
	observe.WriteMetrics(p, &observe.Report{
		Ingested: 4096, Rejected: 12, WindowSize: 256, MinSamples: 32, Threshold: 0.25,
		Retrains: 2, RetrainErrors: 1, RetrainActive: true,
		Windows: []observe.WindowReport{
			{Engine: "neusight", GPU: "H100", Samples: 256, Total: 3000, MAPE: 0.3125, Drifting: true, Retrainable: true},
			{Engine: "roofline", GPU: "V100", Samples: 40, Total: 1096, MAPE: 0.0625},
		},
	})
	WritePlanMetrics(p, &plan.Stats{
		Jobs: 7, Active: 2, Submitted: 9, Completed: 4, Cancelled: 2, Failed: 1,
		ConfigsEvaluated: 672, RemoteBatches: 30, RemoteFailures: 3, RedispatchedBatches: 3,
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", buf.Bytes())
}

// goldenTraceKernels are the keys of the golden trace: an fp32 and an
// fp16 GEMM, a fused kernel with its fused_ops, and a convolution with
// conv_input_elems.
func goldenTraceKernels() (k1, k2, k3, k4, k5 kernels.Kernel) {
	return kernels.NewBMM(8, 512, 512, 512),
		kernels.NewLinear(64, 256, 256).WithDType(kernels.FP16),
		kernels.Kernel{Op: kernels.OpLinear, M: 32, K: 64, N: 64, Fused: true,
			FusedFLOPs: 1.5e6, FusedBytes: 24576, FusedOps: []kernels.Op{kernels.OpLinear, kernels.OpEWGELU}},
		kernels.NewConv2D(kernels.Conv2DShape{Batch: 2, Cin: 3, H: 32, W: 32, Cout: 16, Kh: 3, Kw: 3, Stride: 2, Pad: 1}),
		kernels.NewSoftmax(1024, 128)
}

// writeGoldenTrace runs the three process lifetimes that produced
// testdata/trace.golden.jsonl: a compacting run records four keys (the
// close rewrites them), a second compacting run requests only the first
// (the others age to idle 1 in the rewrite), and a plain run appends a
// fifth — so the file holds rewritten lines followed by an appended one.
func writeGoldenTrace(t *testing.T, path string) {
	t.Helper()
	v100, h100 := gpu.MustLookup("V100"), gpu.MustLookup("H100")
	k1, k2, k3, k4, k5 := goldenTraceKernels()
	rec, err := NewTraceRecorderCompact(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record("neusight", k1, v100)
	rec.Record("neusight", k2, h100)
	rec.Record("neusight", k3, h100)
	rec.Record("roofline", k4, h100)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err = NewTraceRecorderCompact(path, 3); err != nil {
		t.Fatal(err)
	}
	rec.Touch("neusight", k1, v100)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err = NewTraceRecorder(path); err != nil {
		t.Fatal(err)
	}
	rec.Record("neusight", k5, v100)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceGolden(t *testing.T) {
	golden := filepath.Join("testdata", "trace.golden.jsonl")
	v100, h100 := gpu.MustLookup("V100"), gpu.MustLookup("H100")
	k1, k2, k3, k4, k5 := goldenTraceKernels()
	want := []TraceEntry{
		entryFromKernel("neusight", k1, v100),
		entryFromKernel("neusight", k2, h100),
		entryFromKernel("neusight", k3, h100),
		entryFromKernel("roofline", k4, h100),
		entryFromKernel("neusight", k5, v100),
	}
	want[1].Idle, want[2].Idle, want[3].Idle = 1, 1, 1

	entries, skipped, err := ReadTrace(golden)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTrace(golden) = (%v, %d skipped)", err, skipped)
	}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("golden trace reads as\n%+v\nwant\n%+v", entries, want)
	}
	for i, e := range entries {
		if _, err := e.Kernel(); err != nil {
			t.Errorf("golden entry %d does not replay: %v", i, err)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	writeGoldenTrace(t, path)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.golden.jsonl", written)

	// What a member serves to joining peers on /v2/cluster/trace is the
	// same lines again.
	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	reg := predict.NewRegistry()
	reg.MustRegister(constEngine("neusight", 1))
	svc := NewMulti(reg, "neusight", Config{})
	svc.SetTraceRecorder(rec)
	checkGolden(t, "trace.golden.jsonl", svc.TraceJSONL())
}
