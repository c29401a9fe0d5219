package predict

import (
	"context"
	"sync"
	"testing"

	"neusight/internal/baselines"
	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

var (
	fixtureOnce sync.Once
	fixtureReg  *Registry
)

// conformanceRegistry trains every engine of the standard set once on a
// reduced dataset and registers all seven — the exact registration `serve
// -quick` builds.
func conformanceRegistry(t testing.TB) *Registry {
	t.Helper()
	fixtureOnce.Do(func() {
		tdb := tile.NewDB()
		sim := gpusim.New()
		ds := dataset.Generate(dataset.GenConfig{
			Seed: 11, BMM: 60, FC: 30, EW: 20, Softmax: 10, LN: 10,
			GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
		}, sim, tdb)

		p := core.NewPredictor(core.Config{
			Hidden: 24, Layers: 2, Epochs: 8, BatchSize: 128, LR: 3e-3, Seed: 11,
		}, tdb)
		p.Train(ds)

		cfg := baselines.DirectConfig{Hidden: 24, Layers: 2, Epochs: 10, BatchSize: 128, LR: 3e-3, Seed: 11}
		h := baselines.NewHabitat(cfg, sim)
		h.Train(ds)
		li := baselines.NewLiRegression()
		li.Train(ds)
		m := baselines.NewDirectMLP(cfg)
		m.Train(ds.Samples)
		trCfg := cfg
		trCfg.Epochs = 3
		tr := baselines.NewDirectTransformer(trCfg, 1)
		tr.Train(ds.Samples[:200])

		reg := NewRegistry()
		reg.MustRegister(NewCoreEngine(p))
		reg.MustRegister(NewRooflineEngine())
		reg.MustRegister(NewHabitatEngine(h))
		reg.MustRegister(NewLiEngine(li))
		reg.MustRegister(NewDirectMLPEngine(m))
		reg.MustRegister(NewDirectTransformerEngine(tr))
		reg.MustRegister(NewSimEngine(sim))
		fixtureReg = reg
	})
	return fixtureReg
}

// conformanceRequests is the request set every engine must answer: one
// kernel per trained operator category on an in-distribution GPU, plus a
// repeated shape so batch dedup paths are exercised.
func conformanceRequests() []Request {
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{
		kernels.NewBMM(4, 256, 256, 256),
		kernels.NewLinear(128, 512, 512),
		kernels.NewElementwise(kernels.OpEWGELU, 128, 1024),
		kernels.NewSoftmax(64, 512),
		kernels.NewLayerNorm(64, 1024),
		kernels.NewBMM(4, 256, 256, 256), // duplicate of [0]
	}
	reqs := make([]Request, len(ks))
	for i, k := range ks {
		reqs[i] = Request{Kernel: k, GPU: g}
	}
	return reqs
}

// TestEngineConformance runs every registered engine through the same
// contract checks: registration-name agreement, determinism, batch ==
// sequential parity, uniform network-kernel rejection, and honored context
// cancellation. This is the drift detector: a new backend that lands
// without meeting the contract fails here, not in production routing.
func TestEngineConformance(t *testing.T) {
	reg := conformanceRegistry(t)
	want := []string{
		EngineDirectMLP, EngineDirectTransformer, EngineGPUSim,
		EngineHabitat, EngineLiRegression, EngineNeuSight, EngineRoofline,
	}
	got := reg.List()
	if len(got) != len(want) {
		t.Fatalf("registered engines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered engines = %v, want %v", got, want)
		}
	}

	ctx := context.Background()
	reqs := conformanceRequests()
	for _, name := range reg.List() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := reg.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Name() != name {
				t.Fatalf("engine registered as %q reports Name() = %q", name, eng.Name())
			}

			// Determinism: identical requests produce identical results.
			for _, req := range reqs {
				a, errA := eng.PredictKernel(ctx, req)
				b, errB := eng.PredictKernel(ctx, req)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: nondeterministic error for %s: %v vs %v", name, req.Kernel.Label(), errA, errB)
				}
				if errA != nil {
					continue
				}
				if a != b {
					t.Fatalf("%s: nondeterministic result for %s: %+v vs %+v", name, req.Kernel.Label(), a, b)
				}
				if a.Latency <= 0 {
					t.Fatalf("%s: non-positive latency %v for %s", name, a.Latency, req.Kernel.Label())
				}
				if a.Engine != name {
					t.Fatalf("%s: result names engine %q", name, a.Engine)
				}
				if a.Source == "" {
					t.Fatalf("%s: result has no source", name)
				}
			}

			// Batch == sequential parity, positionally.
			outs := eng.PredictKernels(ctx, reqs)
			if len(outs) != len(reqs) {
				t.Fatalf("%s: batch returned %d outcomes for %d requests", name, len(outs), len(reqs))
			}
			for i, req := range reqs {
				single, err := eng.PredictKernel(ctx, req)
				if (err == nil) != (outs[i].Err == nil) {
					t.Fatalf("%s: batch/sequential error mismatch at %d: %v vs %v", name, i, outs[i].Err, err)
				}
				if err != nil {
					continue
				}
				if outs[i].Result != single {
					t.Fatalf("%s: batch result %d = %+v, sequential = %+v", name, i, outs[i].Result, single)
				}
			}

			// Network kernels are rejected uniformly.
			netReq := Request{Kernel: kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1}, GPU: reqs[0].GPU}
			if _, err := eng.PredictKernel(ctx, netReq); err == nil {
				t.Fatalf("%s: network kernel must be rejected", name)
			}
			if out := eng.PredictKernels(ctx, []Request{netReq}); out[0].Err == nil {
				t.Fatalf("%s: network kernel must be rejected in batches", name)
			}

			// A cancelled context fails fast, single and batch.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.PredictKernel(cancelled, reqs[0]); err == nil {
				t.Fatalf("%s: cancelled context must fail PredictKernel", name)
			}
			for i, out := range eng.PredictKernels(cancelled, reqs) {
				if out.Err == nil {
					t.Fatalf("%s: cancelled context must fail batch item %d", name, i)
				}
			}
		})
	}
}

// TestUntrainedEnginesError: every trainable engine, fresh from its
// constructor, reports an error for a kernel it has not been fitted for —
// never a bare garbage float and never a panic.
func TestUntrainedEnginesError(t *testing.T) {
	cfg := baselines.DirectConfig{Hidden: 8, Layers: 1, Epochs: 1, BatchSize: 32, LR: 3e-3, Seed: 1}
	fresh := []Engine{
		NewCoreEngine(core.NewPredictor(core.DefaultConfig(), nil)),
		NewHabitatEngine(baselines.NewHabitat(cfg, gpusim.New())),
		NewLiEngine(baselines.NewLiRegression()),
		NewDirectMLPEngine(baselines.NewDirectMLP(cfg)),
		NewDirectTransformerEngine(baselines.NewDirectTransformer(cfg, 1)),
	}
	ctx := context.Background()
	req := Request{Kernel: kernels.NewBMM(2, 128, 128, 128), GPU: gpu.MustLookup("V100")}
	for _, eng := range fresh {
		if _, ok := eng.(Trainable); !ok {
			t.Errorf("%s: expected a Trainable engine", eng.Name())
		}
		if _, err := eng.PredictKernel(ctx, req); err == nil {
			t.Errorf("%s: untrained engine must error on an untrained category", eng.Name())
		}
	}
}

// TestCoreEngineCapabilities pins the capability surface of the primary
// engine: native batching, training, persistence, graph forecasting, and a
// generation that moves on retrain.
func TestCoreEngineCapabilities(t *testing.T) {
	reg := conformanceRegistry(t)
	eng, err := reg.Get(EngineNeuSight)
	if err != nil {
		t.Fatal(err)
	}
	if !NativeBatch(eng) {
		t.Error("core engine must declare a native batch path")
	}
	if _, ok := eng.(Trainable); !ok {
		t.Error("core engine must be Trainable")
	}
	if _, ok := eng.(GraphPredictor); !ok {
		t.Error("core engine must be a GraphPredictor")
	}
	if Generation(eng) == 0 {
		t.Error("trained core engine must report a non-zero generation")
	}
	// The roofline engine has none of these capabilities, and the helpers
	// degrade gracefully.
	roof, err := reg.Get(EngineRoofline)
	if err != nil {
		t.Fatal(err)
	}
	if NativeBatch(roof) || Generation(roof) != 0 {
		t.Error("roofline engine must report no native batch and generation 0")
	}
}

// TestRegistrySemantics covers Register/Get/List edge cases.
func TestRegistrySemantics(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(nil); err == nil {
		t.Error("nil engine must be rejected")
	}
	if err := reg.Register(NewFuncEngine("", SourceAnalytical,
		func(kernels.Kernel, gpu.Spec) (float64, error) { return 1, nil })); err == nil {
		t.Error("empty name must be rejected")
	}
	e := NewRooflineEngine()
	if err := reg.Register(e); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewRooflineEngine()); err == nil {
		t.Error("duplicate registration must be rejected")
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Error("unknown engine must error")
	}
	got, err := reg.Get(EngineRoofline)
	if err != nil || got != Engine(e) {
		t.Errorf("Get returned %v, %v", got, err)
	}
	if l := reg.List(); len(l) != 1 || l[0] != EngineRoofline {
		t.Errorf("List = %v", l)
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
}

// TestRegistryConcurrentAccess runs Register/Get/List from many goroutines
// (under -race via scripts/check.sh).
func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := string(rune('a' + w))
			reg.MustRegister(NewFuncEngine(name, SourceAnalytical,
				func(kernels.Kernel, gpu.Spec) (float64, error) { return 1, nil }))
			for i := 0; i < 100; i++ {
				if _, err := reg.Get(name); err != nil {
					t.Error(err)
					return
				}
				reg.List()
			}
		}()
	}
	wg.Wait()
	if reg.Len() != 8 {
		t.Fatalf("Len = %d, want 8", reg.Len())
	}
}
