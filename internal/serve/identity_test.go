package serve

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// labelTwins returns two pairs of kernels that print the same Label yet are
// different kernels: a fused GEMM chain and the same chain with more fused
// FLOPs, and a convolution and the same one over a larger input.
func labelTwins(t *testing.T) []kernels.Kernel {
	t.Helper()
	fused := kernels.Fuse(kernels.NewLinear(96, 64, 64), kernels.NewElementwise(kernels.OpEWReLU, 96, 64))
	heavier := fused
	heavier.FusedFLOPs *= 4
	conv := kernels.NewConv2D(kernels.Conv2DShape{Batch: 2, Cin: 16, H: 28, W: 28, Cout: 32, Kh: 3, Kw: 3, Stride: 1, Pad: 1})
	wider := conv
	wider.ConvInputElems *= 4
	ks := []kernels.Kernel{fused, heavier, conv, wider}
	for i := 0; i < len(ks); i += 2 {
		if ks[i].Label() != ks[i+1].Label() || ks[i].Key() == ks[i+1].Key() {
			t.Fatalf("fixture %s: twins must share a label and differ in key", ks[i].Label())
		}
	}
	return ks
}

// TestLabelTwinsGetTheirOwnForecasts: kernels that share a Label but differ
// in FusedFLOPs or ConvInputElems are different questions. Asked in one
// batch, cold and again from the cache, each gets the offline predictor's
// answer for itself, not its twin's.
func TestLabelTwinsGetTheirOwnForecasts(t *testing.T) {
	p := learnedPredictor()
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewCoreEngine(p))
	svc := NewMulti(reg, predict.EngineNeuSight, Config{})
	g := gpu.MustLookup("A100-80GB")
	ks := labelTwins(t)
	want := make([]float64, len(ks))
	for i, k := range ks {
		lat, err := p.PredictKernel(k, g)
		if err != nil {
			t.Fatalf("offline %s: %v", k.Label(), err)
		}
		want[i] = lat
	}
	if want[0] == want[1] || want[2] == want[3] {
		t.Fatalf("offline forecasts %v do not tell the twins apart", want)
	}
	for _, pass := range []string{"cold", "cached"} {
		outs, err := svc.PredictBatchEngine(context.Background(), "", ks, g)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			if outs[i].Err != nil || outs[i].Result.Latency != want[i] {
				t.Errorf("%s: kernel %d (%s) served (%v, %v), offline %v", pass, i, k.Label(), outs[i].Result.Latency, outs[i].Err, want[i])
			}
		}
	}
	if st := svc.Stats(); st.CacheMisses != uint64(len(ks)) || st.CacheHits != uint64(len(ks)) {
		t.Errorf("stats %+v: want one miss and then one hit per kernel", st)
	}
}

// TestTraceRecordsLabelTwinsApart: the trace recorder keeps Label twins as
// separate entries, and a warmup replay of that trace primes every twin, so
// after the restart the first request of each is a cache hit.
func TestTraceRecordsLabelTwinsApart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twins.jsonl")
	g := gpu.MustLookup("V100")
	ks := labelTwins(t)

	var callsA atomic.Int64
	regA := predict.NewRegistry()
	regA.MustRegister(countingEngine("alpha", 1, &callsA))
	svcA := NewMulti(regA, "alpha", Config{CacheSize: 64})
	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	svcA.SetTraceRecorder(rec)
	if _, errs := predictBatch(svcA, ks, g); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := callsA.Load(); got != int64(len(ks)) {
		t.Errorf("backend calls = %d, want %d: one per distinct kernel", got, len(ks))
	}
	entries, _, err := ReadTrace(path)
	if err != nil || len(entries) != len(ks) {
		t.Fatalf("trace has %d entries (%v), want %d: one per distinct kernel", len(entries), err, len(ks))
	}

	var callsB atomic.Int64
	regB := predict.NewRegistry()
	regB.MustRegister(countingEngine("alpha", 1, &callsB))
	svcB := NewMulti(regB, "alpha", Config{CacheSize: 64})
	ws, err := svcB.WarmFromTrace(context.Background(), path)
	if err != nil || ws.Warmed != len(ks) {
		t.Fatalf("warmup = %+v (%v), want all %d twins warmed", ws, err, len(ks))
	}
	hits := svcB.Stats().CacheHits
	for _, k := range ks {
		if _, err := predictKernel(svcB, k, g); err != nil {
			t.Fatal(err)
		}
	}
	if got := svcB.Stats().CacheHits - hits; got != uint64(len(ks)) {
		t.Errorf("%d of %d twins were cache hits after the warmup", got, len(ks))
	}
}

// TestKernelRequestOfRoundTrips pins the one place that decides what the
// kernel API can express: every API operator, at both precisions, encodes
// to a request that builds a kernel with the original's Key, while fused
// kernels, convolutions and operators outside the API are refused — a
// client encoding them would be served a different kernel.
func TestKernelRequestOfRoundTrips(t *testing.T) {
	samples := []kernels.Kernel{
		kernels.NewBMM(8, 64, 32, 16),
		kernels.NewLinear(96, 64, 48),
		kernels.NewSoftmax(16, 128),
		kernels.NewLayerNorm(16, 768),
		kernels.NewEmbedding(512, 768, 30522),
	}
	for _, op := range []kernels.Op{kernels.OpEWAdd, kernels.OpEWMul, kernels.OpEWDiv,
		kernels.OpEWReLU, kernels.OpEWGELU, kernels.OpEWTanh} {
		samples = append(samples, kernels.NewElementwise(op, 4, 1024))
	}
	covered := map[kernels.Op]bool{}
	for _, k := range samples {
		for _, k := range []kernels.Kernel{k, k.WithDType(kernels.FP16)} {
			req, ok := KernelRequestOf(k)
			built, err := buildKernel(req)
			if !ok || err != nil || built.Key() != k.Key() {
				t.Errorf("%s: encoded as %+v (ok %t), built %s (%v); want the same kernel back", k.Label(), req, ok, built.Label(), err)
			}
		}
		covered[k.Op] = true
	}
	if len(covered) != len(apiOps) {
		t.Errorf("samples cover %d API operators, want all %d", len(covered), len(apiOps))
	}

	refused := append(labelTwins(t),
		kernels.Kernel{Op: kernels.OpTranspose, B: 4, M: 64},
		kernels.Kernel{Op: kernels.OpAllReduce, B: 1, M: 1024})
	for _, k := range refused {
		if req, ok := KernelRequestOf(k); ok {
			t.Errorf("%s: encoded as %+v, want it refused", k.Label(), req)
		}
	}
}
